package httpd

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cbreak/internal/core"
)

func netRoundTrip(t *testing.T, addr, line string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return strings.TrimRight(resp, "\n")
}

func TestNetServerProtocol(t *testing.T) {
	e := core.NewEngine()
	ns, err := StartNet(Config{Engine: e, Bug: LogCorruption, Breakpoint: false, Timeout: time.Millisecond}, NetConfig{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer ns.Close()

	if resp := netRoundTrip(t, ns.Addr(), "GET /index"); !strings.HasPrefix(resp, "200 id=") {
		t.Fatalf("GET = %q, want 200", resp)
	}
	if resp := netRoundTrip(t, ns.Addr(), "RELOAD 2048"); resp != "200 reloaded 2048" {
		t.Fatalf("RELOAD = %q", resp)
	}
	if resp := netRoundTrip(t, ns.Addr(), "BOGUS"); resp != "400 parse error" {
		t.Fatalf("bogus = %q, want 400", resp)
	}
	if ns.HandledCount() == 0 {
		t.Fatalf("served counter never advanced")
	}
	if intact, _ := ns.LogLines(); intact == 0 {
		t.Fatalf("no intact log lines after clean GETs")
	}
}

// fakeBackend is a line server that records every statement it is sent
// and answers "ok 1" — the mysql wire shape without the mysql package.
func fakeBackend(t *testing.T) (addr string, stmts func() []string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	//cbvet:ignore rawsync guards test-only bookkeeping that never participates in a modeled deadlock
	var mu sync.Mutex
	var got []string
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					mu.Lock()
					got = append(got, sc.Text())
					mu.Unlock()
					fmt.Fprintf(conn, "ok 1\n")
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got...)
	}
}

// TestNetServerBackendWiring drives GETs through an httpd wired to a
// backend: even path ordinals must arrive as INSERTs, odd ones as FLUSH
// LOGS, and the httpd response must relay the backend's reply.
func TestNetServerBackendWiring(t *testing.T) {
	backend, stmts := fakeBackend(t)
	e := core.NewEngine()
	ns, err := StartNet(Config{Engine: e, Bug: LogCorruption, Breakpoint: false, Timeout: time.Millisecond},
		NetConfig{Backend: backend, BackendTimeout: time.Second})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer ns.Close()

	if resp := netRoundTrip(t, ns.Addr(), "GET /page/4"); !strings.Contains(resp, "db=ok 1") {
		t.Fatalf("GET /page/4 = %q, want relayed db=ok 1", resp)
	}
	if resp := netRoundTrip(t, ns.Addr(), "GET /page/7"); !strings.Contains(resp, "db=ok 1") {
		t.Fatalf("GET /page/7 = %q, want relayed db=ok 1", resp)
	}
	got := stmts()
	if len(got) != 2 || got[0] != "INSERT INTO t1 VALUES ('page-4')" || got[1] != "FLUSH LOGS" {
		t.Fatalf("backend received %q, want [INSERT INTO t1 VALUES ('page-4') FLUSH LOGS]", got)
	}
	if ok, errs := ns.backendOK.Load(), ns.backendErrs.Load(); ok != 2 || errs != 0 {
		t.Fatalf("backend stats = ok %d errs %d, want 2/0", ok, errs)
	}
}

// TestNetServerBackendDown bounds the failure: a dead backend is a 502
// at the backend timeout, never a wedged httpd handler.
func TestNetServerBackendDown(t *testing.T) {
	// An address nothing listens on: reserve a port, then free it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := ln.Addr().String()
	ln.Close()

	e := core.NewEngine()
	ns, err := StartNet(Config{Engine: e, Bug: LogCorruption, Breakpoint: false, Timeout: time.Millisecond},
		NetConfig{Backend: dead, BackendTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer ns.Close()
	start := time.Now()
	if resp := netRoundTrip(t, ns.Addr(), "GET /page/2"); !strings.HasPrefix(resp, "502 ") {
		t.Fatalf("GET with dead backend = %q, want 502", resp)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead backend took %s, want bounded by the 500ms backend timeout", elapsed)
	}
	if ok, errs := ns.backendOK.Load(), ns.backendErrs.Load(); ok != 0 || errs != 1 {
		t.Fatalf("backend stats = ok %d errs %d, want 0/1", ok, errs)
	}
}

func TestNetServerRequiresEngine(t *testing.T) {
	if _, err := StartNet(Config{}, NetConfig{}); err == nil {
		t.Fatalf("StartNet accepted a nil engine")
	}
}
