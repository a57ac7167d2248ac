// Package x has an unexported function that its tests reach through
// export_test.go, the standard pattern.
package x

type T struct{ n int }

func inner() int { return 1 }
