package appboot

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"cbreak/internal/proc"
)

// This file is the process-worker launcher: the hosted app runs in a
// re-exec'd child (cbserverd -app-worker, see worker.go) so the
// supervisor can observe and survive real process death — SIGKILL,
// SIGSTOP wedges, crash-loops — the faults the scenario harness
// injects. The child is placed in its own process group with the
// parent-death signal armed (internal/proc, shared with the campaign's
// trial workers), so killing the daemon never strands a worker.

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
	// HandshakeTimeout bounds the wait for the ready line (default 10s).
	HandshakeTimeout time.Duration
	// StopTimeout bounds graceful SIGTERM stop before the process group
	// is killed (default 5s).
	StopTimeout time.Duration
	// Output receives the worker's stderr and post-handshake stdout
	// (default os.Stderr).
	Output io.Writer
}

// ProcLauncher launches the worker binary as a supervised child
// process. The returned launcher blocks until the worker prints its
// ready handshake, so a worker that dies during boot is a launch error
// (and counts as a crash), not a silent zombie host.
func ProcLauncher(cfg ProcConfig) Launcher {
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.StopTimeout <= 0 {
		cfg.StopTimeout = 5 * time.Second
	}
	if cfg.Output == nil {
		cfg.Output = os.Stderr
	}
	return func(prevAddr string) (Instance, error) {
		cmd := exec.Command(cfg.Bin, cfg.Args(prevAddr)...)
		cmd.SysProcAttr = proc.WorkerAttr()
		cmd.Stderr = cfg.Output
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		inst := &procInstance{
			cmd:         cmd,
			stopTimeout: cfg.StopTimeout,
			done:        make(chan struct{}),
		}
		// Reap in the background; the exit error is latched before done
		// closes so ExitErr is race-free for watchers.
		ready := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			handshook := false
			for sc.Scan() {
				line := sc.Text()
				if !handshook {
					if addr, ok := parseHandshake(line); ok {
						handshook = true
						ready <- addr
						continue
					}
				}
				fmt.Fprintln(cfg.Output, line)
			}
			inst.exitErr = cmd.Wait()
			if inst.exitErr == nil {
				inst.exitErr = fmt.Errorf("worker exited")
			}
			close(inst.done)
		}()
		select {
		case addr := <-ready:
			inst.addr = addr
			return inst, nil
		case <-inst.done:
			return nil, fmt.Errorf("worker died before handshake: %v", inst.exitErr)
		case <-time.After(cfg.HandshakeTimeout):
			_ = inst.Kill()
			return nil, fmt.Errorf("worker handshake timed out after %s", cfg.HandshakeTimeout)
		}
	}
}

// procInstance is one live worker process.
type procInstance struct {
	cmd         *exec.Cmd
	addr        string
	stopTimeout time.Duration

	killOnce sync.Once
	done     chan struct{}
	exitErr  error
}

func (p *procInstance) Addr() string          { return p.addr }
func (p *procInstance) Pid() int              { return p.cmd.Process.Pid }
func (p *procInstance) Done() <-chan struct{} { return p.done }

func (p *procInstance) ExitErr() error {
	select {
	case <-p.done:
		return p.exitErr
	default:
		return nil
	}
}

// Stop asks the worker to drain (SIGTERM), escalating to a group kill
// at the stop timeout.
func (p *procInstance) Stop() error {
	if err := proc.Terminate(p.cmd); err != nil {
		return p.Kill()
	}
	select {
	case <-p.done:
		return nil
	case <-time.After(p.stopTimeout):
		return p.Kill()
	}
}

// Kill kills the worker's whole process group and waits for the reap.
func (p *procInstance) Kill() error {
	var err error
	p.killOnce.Do(func() { err = proc.KillTree(p.cmd) })
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
	}
	return err
}
