package proc

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"
)

// Child is a long-lived child process that announced itself ready with
// a line on its stdout.
type Child struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error // cmd.Wait's result, set before done closes
	kill sync.Once
}

// Start starts cmd, which the caller has built, and copies its stderr
// and stdout to out. It returns once ready accepts a line of the
// child's stdout, with that line, and fails if the child exits first
// or timeout passes; on a timeout it kills the child. out must be safe
// for the child's stderr and stdout to write at once: an *os.File is.
func Start(cmd *exec.Cmd, out io.Writer, timeout time.Duration, ready func(line string) bool) (*Child, string, error) {
	cmd.Stderr = out
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	c := &Child{cmd: cmd, done: make(chan struct{})}
	readyLine := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(out, line)
			if !announced && ready(line) {
				announced = true
				readyLine <- line
			}
		}
		// Wait only after the last read: it closes the pipe.
		c.err = cmd.Wait()
		close(c.done)
	}()
	wait := time.NewTimer(timeout)
	defer wait.Stop()
	select {
	case line := <-readyLine:
		return c, line, nil
	case <-c.done:
		return nil, "", fmt.Errorf("exited before its ready line: %v", c.err)
	case <-wait.C:
		c.Kill()
		return nil, "", fmt.Errorf("no ready line within %s", timeout)
	}
}

// Pid returns the child's process id.
func (c *Child) Pid() int { return c.cmd.Process.Pid }

// Done is closed once the child has exited and its output is copied.
func (c *Child) Done() <-chan struct{} { return c.done }

// Err returns how the child exited (nil for status 0), or nil while it
// runs.
func (c *Child) Err() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

// Stop sends SIGTERM and waits up to timeout for the child to exit,
// then kills it. It returns how the child exited, or an error saying it
// was killed.
func (c *Child) Stop(timeout time.Duration) error {
	if Terminate(c.cmd) != nil {
		// Only an exited child refuses the signal; Kill waits for it.
		c.Kill()
		return c.Err()
	}
	wait := time.NewTimer(timeout)
	defer wait.Stop()
	select {
	case <-c.done:
		return c.err
	case <-wait.C:
		c.Kill()
		return fmt.Errorf("did not exit within %s of SIGTERM (killed)", timeout)
	}
}

// Kill kills the child's process tree (KillTree) and waits up to five
// seconds for it to exit. It may be called more than once; later calls
// only wait.
func (c *Child) Kill() error {
	var err error
	c.kill.Do(func() { err = KillTree(c.cmd) })
	wait := time.NewTimer(5 * time.Second)
	defer wait.Stop()
	select {
	case <-c.done:
	case <-wait.C:
	}
	return err
}
