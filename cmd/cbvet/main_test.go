package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCapture drives run() with temp files standing in for the
// process's stdout/stderr, since the vet protocol path wants real
// *os.File handles.
func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	code = run(args, outF, errF)
	out, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	errb, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(errb)
}

// The -json artifact must be byte-stable: CI uploads it and diffs
// against history, so the shape is pinned by a golden file. The demo
// fixture contains one live finding, one suppressed finding, and two
// malformed directives (missing reason, unknown analyzer name).
//
// To regenerate after an intentional shape change:
//
//	cd cmd/cbvet && go run . -json testdata/demo > testdata/golden.json
//
// (ignore the non-zero exit; findings are expected).
func TestJSONGolden(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-json", "testdata/demo")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present); stderr:\n%s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(stdout), want) {
		t.Errorf("-json output differs from testdata/golden.json\n--- got ---\n%s\n--- want ---\n%s", stdout, want)
	}
}

// Human mode: findings go to stdout in file:line:col form, and the
// suppression count is reported on stderr so a growing pile of
// //cbvet:ignore directives stays visible.
func TestSuppressionAccounting(t *testing.T) {
	code, stdout, stderr := runCapture(t, "testdata/demo")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "timerleak: time.After in a") {
		t.Errorf("stdout missing the live timerleak finding:\n%s", stdout)
	}
	if !strings.Contains(stdout, "cbvet: //cbvet:ignore") {
		t.Errorf("stdout missing the malformed-directive findings:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s) suppressed by //cbvet:ignore") {
		t.Errorf("stderr missing the suppression count:\n%s", stderr)
	}
}

// A clean package exits 0 with no output.
func TestCleanPackage(t *testing.T) {
	code, stdout, _ := runCapture(t, "-run", "timerleak", "../../internal/locks")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout:\n%s", code, stdout)
	}
	if stdout != "" {
		t.Errorf("unexpected findings on a clean package:\n%s", stdout)
	}
}

// A package that does not type-check fails the run: the analyzers
// would otherwise see partial types and report nothing wrong.
func TestTypeErrorFailsTheRun(t *testing.T) {
	code, stdout, stderr := runCapture(t, "testdata/typeerror")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "type error:") {
		t.Errorf("stderr missing the type error:\n%s", stderr)
	}
}

func TestUnknownAnalyzerSelection(t *testing.T) {
	code, _, stderr := runCapture(t, "-run", "nosuch", "testdata/demo")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr missing selection error:\n%s", stderr)
	}
}

// The go vet driver protocol end to end: build the real binary, hand
// it to `go vet -vettool`, and check it reports the fixture's finding
// through the .cfg/export-data path rather than our own loader.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	bin := filepath.Join(t.TempDir(), "cbvet")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cbvet: %v\n%s", err, out)
	}

	// -V=full identity line, required by the vet driver handshake.
	idOut, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	if !strings.HasPrefix(string(idOut), "cbvet version ") {
		t.Fatalf("-V=full output %q lacks the identity prefix", idOut)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin,
		"cbreak/internal/analysis/timerleak/testdata/a")
	vet.Dir = "../.."
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet exited 0, want findings; output:\n%s", out)
	}
	if !strings.Contains(string(out), "time.After in a") {
		t.Fatalf("go vet output missing the timerleak finding:\n%s", out)
	}
	// The fixture's suppressed site must stay suppressed under the vet
	// protocol too: exactly the three live wants, nothing more.
	if n := strings.Count(string(out), "timerleak:"); n != 3 {
		t.Fatalf("go vet reported %d timerleak findings, want 3:\n%s", n, out)
	}
}
