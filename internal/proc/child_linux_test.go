package proc

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// childMode, when set, makes the test binary act as the child of the
// test that re-execs it.
const childMode = "PROC_TEST_CHILD"

func TestMain(m *testing.M) {
	if mode := os.Getenv(childMode); mode != "" {
		runChild(mode)
		return
	}
	os.Exit(m.Run())
}

func runChild(mode string) {
	switch mode {
	case "drains": // ready, then drains and exits 0 on SIGTERM
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGTERM)
		fmt.Println("booting")
		fmt.Fprintln(os.Stderr, "a line on stderr")
		fmt.Println("ready addr=127.0.0.1:9")
		<-sigs
		fmt.Println("drained")
		os.Exit(0)
	case "exits": // dies before its ready line
		fmt.Println("booting")
		os.Exit(3)
	case "silent": // never ready
		time.Sleep(time.Minute)
	case "stubborn": // ready, ignores SIGTERM
		signal.Ignore(syscall.SIGTERM)
		fmt.Println("ready")
		time.Sleep(time.Minute)
	}
	os.Exit(2)
}

// child builds the command that re-execs this test binary in mode.
func child(mode string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childMode+"="+mode)
	cmd.SysProcAttr = WorkerAttr()
	return cmd
}

// output returns a file in the test's directory for the child's output.
func output(t *testing.T) *os.File {
	f, err := os.Create(filepath.Join(t.TempDir(), "out.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func isReady(line string) bool { return strings.HasPrefix(line, "ready") }

func TestStartReturnsReadyLineAndStopDrains(t *testing.T) {
	out := output(t)
	c, line, err := Start(child("drains"), out, 10*time.Second, isReady)
	if err != nil {
		t.Fatal(err)
	}
	if line != "ready addr=127.0.0.1:9" {
		t.Fatalf("ready line = %q", line)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err while running = %v", err)
	}
	if err := c.Stop(10 * time.Second); err != nil {
		t.Fatalf("Stop after a clean drain = %v", err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"booting\n", "a line on stderr\n", "ready addr=127.0.0.1:9\n", "drained\n"} {
		if !strings.Contains(string(got), want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestStartFailsWhenChildExitsFirst(t *testing.T) {
	_, _, err := Start(child("exits"), output(t), 10*time.Second, isReady)
	if err == nil || !strings.Contains(err.Error(), "exited before its ready line") ||
		!strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("err = %v, want an exit before the ready line with status 3", err)
	}
}

func TestStartKillsChildAtReadyTimeout(t *testing.T) {
	cmd := child("silent")
	_, _, err := Start(cmd, output(t), 300*time.Millisecond, isReady)
	if err == nil || !strings.Contains(err.Error(), "no ready line within 300ms") {
		t.Fatalf("err = %v, want a ready timeout", err)
	}
	if cmd.ProcessState == nil {
		t.Fatal("Start returned before the timed-out child was reaped")
	}
	if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child exit = %v, want SIGKILL", cmd.ProcessState)
	}
}

func TestStopEscalatesToKill(t *testing.T) {
	c, _, err := Start(child("stubborn"), output(t), 10*time.Second, isReady)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Stop(200 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "(killed)") {
		t.Fatalf("Stop = %v, want the kill escalation", err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("child still running after Stop escalated")
	}
	if !strings.Contains(fmt.Sprint(c.Err()), "killed") {
		t.Fatalf("Err = %v, want killed", c.Err())
	}
	if err := c.Kill(); err != nil {
		t.Fatalf("second Kill = %v", err)
	}
}
