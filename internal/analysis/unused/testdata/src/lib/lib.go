package lib

import "fmt"

// Handle is reached through the root API.
type Handle struct{ n int }

func Open() *Handle { return &Handle{n: start()} }

// start is unexported and reached from non-test code.
func start() int { return 0 }

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

// stepper is an unexported interface that Start calls through.
type stepper interface{ step() }

// step is reached: job is, and step satisfies stepper.
func (job) step() {}

func Start() Runner {
	var s stepper = job{}
	s.step()
	return job{}
}

// Box is generic; the root API reaches Box[string].
type Box[T any] struct{ v T }

// String is reached: Box is, and String satisfies fmt.Stringer.
func (b Box[T]) String() string { return fmt.Sprint(b.v) }

// getter and cell are generic; Read calls cell's get through
// getter[int].
type getter[T any] interface{ get() T }

type cell[T any] struct{ v T }

// get is reached: cell is, and it has getter's methods.
func (c cell[T]) get() T { return c.v }

func Read() int {
	var g getter[int] = cell[int]{v: 8}
	return g.get()
}

// Dead and DeadTail are a chain that nothing outside it reaches.
func Dead() int { return DeadTail() } // want "func Dead "

func DeadTail() int { return 1 } // want "func DeadTail"

// ForTests is reached only from another package's test.
func ForTests() int { return 2 }

// ForMain is reached only from a package main.
func ForMain() int { return 3 }

// OwnTests is called only by this package's own test.
func OwnTests() int { return 4 } // want "exported func OwnTests"

// ownTests is unexported and called only by this package's own test.
func ownTests() int { return 7 } // want "func ownTests is reached by no program"

var Limit = 5 // want "var Limit"

//cbvet:ignore unused kept to exercise the suppression
func Kept() int { return 6 }
