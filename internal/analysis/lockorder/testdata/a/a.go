// Fixture for the lockorder analyzer.
package a

import "cbreak/internal/locks"

var (
	alpha = locks.NewMutex("fix.alpha")
	beta  = locks.NewMutex("fix.beta")
	gamma = locks.NewMutex("fix.gamma")
	delta = locks.NewMutex("fix.delta")
	solo  = locks.NewMutex("fix.solo")
)

// Inverted orders: alpha -> beta here, beta -> alpha below.
func forward() {
	alpha.Lock()
	defer alpha.Unlock()
	beta.Lock() // want "lock-order cycle"
	defer beta.Unlock()
}

func backward() {
	beta.Lock()
	defer beta.Unlock()
	alpha.Lock() // want "lock-order cycle"
	defer alpha.Unlock()
}

// The same inversion through an interprocedural edge: grab acquires
// delta while transitively holding gamma.
func viaCallee() {
	gamma.Lock()
	defer gamma.Unlock()
	grab() // want "lock-order cycle"
}

func grab() {
	delta.Lock()
	defer delta.Unlock()
}

func opposite() {
	delta.Lock()
	defer delta.Unlock()
	gamma.Lock() // want "lock-order cycle"
	defer gamma.Unlock()
}

// Suppressed inversion: both edges of a cycle carry a directive.
func toleratedForward() {
	alpha.Lock()
	defer alpha.Unlock()
	//cbvet:ignore lockorder intentional inversion for the suppression fixture
	gamma.Lock()
	defer gamma.Unlock()
}

func toleratedBackward() {
	gamma.Lock()
	defer gamma.Unlock()
	//cbvet:ignore lockorder intentional inversion for the suppression fixture
	alpha.Lock()
	defer alpha.Unlock()
}

// Negative: a consistent order is no cycle, nor is nesting under a
// single lock.
func consistentA() {
	solo.Lock()
	defer solo.Unlock()
	beta.Lock()
	defer beta.Unlock()
}

func consistentB() {
	solo.Lock()
	defer solo.Unlock()
	beta.Lock()
	defer beta.Unlock()
}

// Locks with no constant name are named by where they are declared.
func locals(name string) {
	x, y := locks.NewMutex(name+".x"), locks.NewMutex(name+".y")
	x.Lock()
	y.Lock() // want "lock-order cycle cbreak/internal/analysis/lockorder/testdata/a/a.go:84:2.x -> cbreak/internal/analysis/lockorder/testdata/a/a.go:84:5.y"
	y.Unlock()
	x.Unlock()
	y.Lock()
	x.Lock() // want "lock-order cycle"
	x.Unlock()
	y.Unlock()
}
