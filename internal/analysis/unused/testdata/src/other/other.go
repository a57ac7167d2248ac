// Package other has a test that calls into lib.
package other
