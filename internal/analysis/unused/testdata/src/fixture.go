// Package fixture is the root package: its exported API is an entry
// point.
package fixture

import "fixture/lib"

// Open is root API, so lib.Open and lib.Handle are reached.
func Open() *lib.Handle { return lib.Open() }

// Start is root API, so lib.Start and lib.Runner are reached.
func Start() lib.Runner { return lib.Start() }
