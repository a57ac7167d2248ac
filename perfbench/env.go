package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// provenance is recorded with every result.
type provenance struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	// Loopback connection reuse: every socket-httpd request opens two
	// connections, so its rate depends on TIME_WAIT reuse and on the
	// ephemeral port range.
	TCPTwReuse     string `json:"tcp_tw_reuse,omitempty"`
	LocalPortRange string `json:"ip_local_port_range,omitempty"`
}

func collectProvenance(r *run) provenance {
	p := provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		Seed: r.seed, WindowS: r.window.Seconds(),
	}
	if r.w.name == "socket-httpd" {
		p.TCPTwReuse = readTrim("/proc/sys/net/ipv4/tcp_tw_reuse")
		p.LocalPortRange = strings.Join(strings.Fields(readTrim("/proc/sys/net/ipv4/ip_local_port_range")), "-")
	}
	return p
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime is the CPU time this process has used, user and system.
// Unlike wall time it excludes the time a virtual CPU was stolen by
// its host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks returns the machine's steal and total CPU ticks from
// /proc/stat, or zeros where it is unreadable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = n
		}
	}
	return steal, total
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readRuntime() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// refusesAll checks that nothing listens on any of addrs any more.
func refusesAll(addrs []string) error {
	var errs []error
	for _, a := range addrs {
		c, err := net.DialTimeout("tcp", a, time.Second)
		if err == nil {
			c.Close()
			errs = append(errs, fmt.Errorf("%s still accepts connections", a))
		}
	}
	return errors.Join(errs...)
}
