// Package fixture is the root package: its exported API is an entry
// point.
package fixture

import (
	"fmt"

	"fixture/lib"
)

// Open is root API, so lib.Open and lib.Handle are reached.
func Open() *lib.Handle { return lib.Open() }

// Start is root API, so lib.Start and lib.Runner are reached.
func Start() lib.Runner { return lib.Start() }

// Label is root API, so lib.Box is reached.
func Label() fmt.Stringer { return lib.Box[string]{} }

// Read is root API, so lib.Read, lib.getter and lib.cell are reached.
func Read() int { return lib.Read() }
