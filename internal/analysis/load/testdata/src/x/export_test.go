package x

// Inner exports inner to the external test package.
var Inner = inner

// N is a method that only the tests see.
func (t T) N() int { return t.n }
