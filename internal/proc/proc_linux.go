//go:build linux

package proc

import (
	"os/exec"
	"syscall"
)

// WorkerAttr places a worker in its own process group and arms the
// parent-death signal, the belt-and-braces answer to orphaned workers
// (they must be reaped even when the supervisor dies without running
// its own cleanup):
//
//   - Setpgid: the worker and everything it forks share a process
//     group, so the supervisor's kill reaches grandchildren too — a
//     deadlock reproduction that shells out cannot leave a straggler.
//   - Pdeathsig: the kernel SIGKILLs the worker the moment its parent
//     thread dies, so even `kill -9` of the supervisor (which runs no
//     deferred cleanup at all) reaps the tree.
func WorkerAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}

// Terminate delivers the graceful-drain signal (SIGTERM).
func Terminate(cmd *exec.Cmd) error {
	if cmd.Process == nil {
		return nil
	}
	return cmd.Process.Signal(syscall.SIGTERM)
}

// KillTree kills the worker's whole process group (negative pid),
// falling back to a direct kill if the group is already gone.
func KillTree(cmd *exec.Cmd) error {
	if cmd.Process == nil {
		return nil
	}
	if err := syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL); err == nil {
		return nil
	}
	return cmd.Process.Kill()
}
