package lib

import "fmt"

// Handle is reached through the root API.
type Handle struct{ n int }

func Open() *Handle { return &Handle{} }

// String is reached: its type is, and it satisfies fmt.Stringer.
func (h *Handle) String() string { return fmt.Sprint(h.n) }

// Close belongs to a reached type, but nothing calls it and no
// interface asks for it.
func (h *Handle) Close() {} // want "method Handle.Close"

// Runner is an interface of this module.
type Runner interface{ Run() }

type job struct{}

// Run is reached: job is, and Run satisfies Runner.
func (job) Run() {}

func Start() Runner { return job{} }

// Dead and DeadTail are a chain that nothing outside it reaches.
func Dead() int { return DeadTail() } // want "func Dead "

func DeadTail() int { return 1 } // want "func DeadTail"

// ForTests is reached only from another package's test.
func ForTests() int { return 2 }

// ForMain is reached only from a package main.
func ForMain() int { return 3 }

// OwnTests is called only by this package's own test.
func OwnTests() int { return 4 } // want "func OwnTests"

var Limit = 5 // want "var Limit"

//cbvet:ignore unused kept to exercise the suppression
func Kept() int { return 6 }
