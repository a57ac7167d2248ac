package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"cbreak/internal/journal/sink"
	"cbreak/internal/proc"
)

// Daemon is one cbserverd process under scenario control, addressed
// exactly as an operator would: the admin HTTP listener and the chaos
// proxy socket, both parsed from the daemon's own boot banner.
type Daemon struct {
	// AdminAddr is the admin HTTP host:port.
	AdminAddr string
	// ProxyAddr is the chaos proxy host:port load clients dial.
	ProxyAddr string

	*proc.Child
	log *os.File
}

// StartDaemon boots c.Bin with the given args plus ephemeral admin and
// proxy listeners, tees its output into <dir>/<name>.log, and waits for
// the boot banner to learn the real addresses. The daemon is killed by
// Context.Cleanup if the scenario doesn't stop it itself.
func (c *Context) StartDaemon(name string, args ...string) (*Daemon, error) {
	logPath := c.Path(name + ".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", "127.0.0.1:0", "-proxy-addr", "127.0.0.1:0"}, args...)
	child, banner, err := proc.Start(exec.Command(c.Bin, full...), logFile, 20*time.Second, func(line string) bool {
		return strings.HasPrefix(line, "cbserverd: admin http://")
	})
	if err != nil {
		logFile.Close()
		return nil, fmt.Errorf("daemon %s: %w — see %s", name, err, logPath)
	}
	d := &Daemon{Child: child, log: logFile}
	c.daemons = append(c.daemons, d)
	c.Logf("daemon %s: pid %d (%s)", name, d.Pid(), strings.Join(full, " "))
	if d.AdminAddr, d.ProxyAddr, err = parseBanner(banner); err != nil {
		return nil, err
	}
	c.Logf("daemon %s: admin %s proxy %s", name, d.AdminAddr, d.ProxyAddr)
	return d, nil
}

// parseBanner extracts the admin and proxy addresses from
// "cbserverd: admin http://H:P  apps ...  proxy H:P -> H:P".
func parseBanner(line string) (admin, proxy string, err error) {
	fields := strings.Fields(line)
	for i, f := range fields {
		switch {
		case f == "admin" && i+1 < len(fields):
			admin = strings.TrimPrefix(fields[i+1], "http://")
		case f == "proxy" && i+1 < len(fields):
			proxy = fields[i+1]
		}
	}
	if admin == "" || proxy == "" {
		return "", "", fmt.Errorf("unparseable boot banner: %q", line)
	}
	return admin, proxy, nil
}

// Get performs one admin GET and returns the status code and body.
func (d *Daemon) Get(path string) (int, string, error) {
	resp, err := http.Get("http://" + d.AdminAddr + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

// Post performs one admin POST with form values.
func (d *Daemon) Post(path string, form url.Values) (int, string, error) {
	resp, err := http.PostForm("http://"+d.AdminAddr+path, form)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

// AppRow is one supervised app's row in GET /status.
type AppRow struct {
	Name          string `json:"name"`
	State         string `json:"state"`
	Addr          string `json:"addr"`
	Pid           int    `json:"pid"`
	Restarts      int64  `json:"restarts"`
	Crashes       int64  `json:"crashes"`
	Quarantines   int64  `json:"quarantines"`
	ProbeFailures int64  `json:"probe_failures"`
	LastExit      string `json:"last_exit"`
	Bug           string `json:"bug"`
}

// Status fetches and decodes the supervision-relevant slice of /status.
func (d *Daemon) Status() (apps []AppRow, ready bool, err error) {
	code, body, err := d.Get("/status")
	if err != nil {
		return nil, false, err
	}
	if code != http.StatusOK {
		return nil, false, fmt.Errorf("/status: HTTP %d", code)
	}
	var st struct {
		Apps  []AppRow `json:"apps"`
		Ready bool     `json:"ready"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return nil, false, fmt.Errorf("/status: %v", err)
	}
	return st.Apps, st.Ready, nil
}

// App returns the named app's /status row.
func (d *Daemon) App(name string) (AppRow, error) {
	apps, _, err := d.Status()
	if err != nil {
		return AppRow{}, err
	}
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return AppRow{}, fmt.Errorf("/status has no app %q", name)
}

// WaitReady polls /readyz until it answers 200.
func (d *Daemon) WaitReady(timeout time.Duration) error {
	return WaitFor("readyz", timeout, func() (bool, error) {
		code, body, err := d.Get("/readyz")
		if err != nil {
			return false, err
		}
		if code != http.StatusOK {
			return false, fmt.Errorf("HTTP %d: %s", code, strings.TrimSpace(body))
		}
		return true, nil
	})
}

// MetricValue scrapes /metrics and returns the sample whose series name
// (including its label set, e.g. `cbreak_supervisor_restarts_total{app="httpd"}`)
// matches exactly.
func (d *Daemon) MetricValue(series string) (float64, error) {
	code, body, err := d.Get("/metrics")
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("/metrics: HTTP %d", code)
	}
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		return strconv.ParseFloat(strings.TrimSpace(rest), 64)
	}
	return 0, fmt.Errorf("/metrics has no series %s", series)
}

// Roundtrip sends one request line over a fresh socket (typically the
// proxy address) and returns the one response line.
func Roundtrip(addr, line string, timeout time.Duration) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		return "", err
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(resp, "\n"), nil
}

// CountJournalIncidents replays the sink journal in dir and counts
// incident records carrying the given label (e.g. "deadlock-confirmed").
func CountJournalIncidents(dir, label string) (int, error) {
	n := 0
	_, err := sink.Replay(dir, func(e sink.Entry) error {
		if e.Incident != nil && e.Incident.Incident == label {
			n++
		}
		return nil
	})
	return n, err
}

// CountJournalRecords replays the sink journal in dir and returns how
// many well-formed records it holds (proving the journal survives its
// crash-recovery path end to end).
func CountJournalRecords(dir string) (int, error) {
	n := 0
	_, err := sink.Replay(dir, func(sink.Entry) error { n++; return nil })
	return n, err
}
