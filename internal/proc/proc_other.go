//go:build !linux

package proc

import (
	"os"
	"os/exec"
	"syscall"
)

// WorkerAttr: no process-group/parent-death support wired on this
// platform; workers are killed individually.
func WorkerAttr() *syscall.SysProcAttr { return nil }

// Terminate delivers the graceful-drain signal where the platform has
// one, falling back to a kill.
func Terminate(cmd *exec.Cmd) error {
	if cmd.Process == nil {
		return nil
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		return cmd.Process.Kill()
	}
	return nil
}

// KillTree kills the worker process directly.
func KillTree(cmd *exec.Cmd) error {
	if cmd.Process == nil {
		return nil
	}
	return cmd.Process.Kill()
}
