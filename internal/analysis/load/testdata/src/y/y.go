// Package y imports x, so loading y first checks x as a dependency.
package y

import "fixture/x"

var V x.T
