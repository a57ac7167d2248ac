// Package scenario is the black-box process-chaos harness: each
// scenario boots the real cbserverd binary (and its supervised app
// worker processes) on ephemeral ports, drives it over real sockets
// through the netchaos proxy, injects process-level faults — SIGKILL,
// SIGSTOP wedges, crash-loops, forced proxy partitions, disk faults
// under a worker's durable journal — and asserts on what an operator
// could observe: /metrics scrapes, /status and /readyz, and the
// workers' durable journals. Nothing here reaches into package
// internals; if a scenario can't prove its property through the
// daemon's own surfaces, the daemon's observability is the bug.
//
// Scenarios are registered at init and run either by `go test
// ./internal/scenario` or by the cmd/cbscen driver (which keeps the
// per-run artifact directories for CI upload).
package scenario

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Scenario is one registered chaos scenario.
type Scenario struct {
	// Name is the registry key (cbscen -run <name>).
	Name string
	// Desc is the one-line description (cbscen -list).
	Desc string
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
	// Run executes the scenario; any error fails it.
	Run func(c *Context) error
}

var registry []Scenario

// Register adds a scenario (init-time; duplicate names panic).
func Register(s Scenario) {
	if s.Timeout <= 0 {
		s.Timeout = 60 * time.Second
	}
	for _, have := range registry {
		if have.Name == s.Name {
			panic("scenario: duplicate name " + s.Name)
		}
	}
	registry = append(registry, s)
}

// All returns the registered scenarios in registration order.
func All() []Scenario { return append([]Scenario(nil), registry...) }

// Find returns the named scenario.
func Find(name string) (Scenario, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Context is one scenario run's environment: the daemon binary, a
// scratch directory that doubles as the artifact bundle (daemon logs,
// journals), and a log sink for the scenario's own narration.
type Context struct {
	// Bin is the cbserverd binary under test.
	Bin string
	// Dir is the scenario's scratch/artifact directory.
	Dir string
	// Log receives scenario narration (defaults to io.Discard).
	Log io.Writer

	daemons []*Daemon
}

// NewContext builds a run context, creating dir.
func NewContext(bin, dir string, log io.Writer) (*Context, error) {
	if log == nil {
		log = io.Discard
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Context{Bin: bin, Dir: dir, Log: log}, nil
}

// Logf narrates one step.
func (c *Context) Logf(format string, args ...any) {
	fmt.Fprintf(c.Log, "  "+format+"\n", args...)
}

// Path returns a path inside the scenario's artifact directory.
func (c *Context) Path(elem ...string) string {
	return filepath.Join(append([]string{c.Dir}, elem...)...)
}

// Cleanup kills every daemon the context started and closes its log
// (idempotent; Run callers invoke it after the scenario returns).
func (c *Context) Cleanup() {
	for _, d := range c.daemons {
		d.Kill()
		d.log.Close()
	}
}

// RunOne executes a scenario under its timeout with a fresh context and
// returns the verdict. The artifact directory is dir/<name>.
func RunOne(s Scenario, bin, dir string, log io.Writer) error {
	c, err := NewContext(bin, filepath.Join(dir, s.Name), log)
	if err != nil {
		return err
	}
	defer c.Cleanup()
	errCh := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				errCh <- fmt.Errorf("panic: %v", p)
			}
		}()
		errCh <- s.Run(c)
	}()
	select {
	case err := <-errCh:
		return err
	case <-time.After(s.Timeout):
		return fmt.Errorf("timed out after %s", s.Timeout)
	}
}

// WaitFor polls cond until it returns true, an error, or the deadline.
func WaitFor(what string, timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		ok, err := cond()
		if ok {
			return nil
		}
		lastErr = err
		time.Sleep(25 * time.Millisecond)
	}
	if lastErr != nil {
		return fmt.Errorf("waiting for %s: deadline after %s (last error: %v)", what, timeout, lastErr)
	}
	return fmt.Errorf("waiting for %s: deadline after %s", what, timeout)
}
