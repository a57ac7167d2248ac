package appboot

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"cbreak/internal/proc"
)

// This file is the process-worker launcher: the hosted app runs in a
// re-exec'd child (cbserverd -app-worker, see worker.go) so the
// supervisor can observe and survive real process death — SIGKILL,
// SIGSTOP wedges, crash-loops — the faults the scenario harness
// injects. The child is placed in its own process group with the
// parent-death signal armed (internal/proc, shared with the campaign's
// trial workers), so killing the daemon never strands a worker, and
// runs behind proc.Start's ready-line handshake.

// HandshakePrefix opens the one line a worker prints to stdout once its
// socket is listening; the launcher parses the address out of it.
const HandshakePrefix = "appboot-worker: "

// Handshake formats the worker's ready line.
func Handshake(app, addr string) string {
	return fmt.Sprintf("%sapp=%s addr=%s", HandshakePrefix, app, addr)
}

// parseHandshake extracts the addr= field from a ready line.
func parseHandshake(line string) (addr string, ok bool) {
	if !strings.HasPrefix(line, HandshakePrefix) {
		return "", false
	}
	for _, f := range strings.Fields(line[len(HandshakePrefix):]) {
		if v, found := strings.CutPrefix(f, "addr="); found {
			return v, v != ""
		}
	}
	return "", false
}

// ProcConfig parameterizes a process launcher.
type ProcConfig struct {
	// Bin is the worker binary (usually os.Executable(): the daemon
	// re-execs itself in -app-worker mode).
	Bin string
	// Args builds the argv for one launch given the pinned listen
	// address ("" on the first launch).
	Args func(listenAddr string) []string
}

// A worker has handshakeTimeout to print its ready line and
// stopTimeout to drain after SIGTERM before its process group is
// killed. Its stderr and stdout go to the launcher's stderr.
const (
	handshakeTimeout = 10 * time.Second
	stopTimeout      = 5 * time.Second
)

// ProcLauncher launches the worker binary as a supervised child
// process. The returned launcher blocks until the worker prints its
// ready handshake, so a worker that dies during boot is a launch error
// (and counts as a crash), not a silent zombie host.
func ProcLauncher(cfg ProcConfig) Launcher {
	return func(prevAddr string) (Instance, error) {
		cmd := exec.Command(cfg.Bin, cfg.Args(prevAddr)...)
		cmd.SysProcAttr = proc.WorkerAttr()
		child, line, err := proc.Start(cmd, os.Stderr, handshakeTimeout, func(line string) bool {
			_, ok := parseHandshake(line)
			return ok
		})
		if err != nil {
			return nil, fmt.Errorf("worker: %w", err)
		}
		addr, _ := parseHandshake(line)
		return &procInstance{Child: child, addr: addr}, nil
	}
}

// procInstance is one live worker process.
type procInstance struct {
	*proc.Child
	addr string
}

func (p *procInstance) Addr() string { return p.addr }

// ExitErr reports why the worker died; a worker never exits cleanly on
// its own, so a zero status is an error too.
func (p *procInstance) ExitErr() error {
	select {
	case <-p.Done():
		if err := p.Err(); err != nil {
			return err
		}
		return fmt.Errorf("worker exited")
	default:
		return nil
	}
}

// Stop asks the worker to drain (SIGTERM), escalating to a group kill
// at the stop timeout.
func (p *procInstance) Stop() error { return p.Child.Stop(stopTimeout) }
