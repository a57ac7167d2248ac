// Fixture for the cbvet driver tests: a package that does not
// type-check.
package typeerror

var n int = "not an int"
