// Package logging models java.util.logging's classic lock-order
// deadlock (Table 1 row "logging / deadlock1"): the log path locks the
// Logger and then its Handler to publish, while a concurrent
// reconfiguration locks the Handler and then the Logger to re-read its
// level — opposite acquisition orders on the same two monitors.
package logging

import (
	"fmt"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
)

// BPDeadlock identifies the breakpoint in engine statistics.
const BPDeadlock = "logging.deadlock1"

// Level is a log severity.
type Level int

// Severity levels.
const (
	Fine Level = iota
	Info
	Warning
)

// Record is one log record.
type Record struct {
	Level   Level
	Message string
}

// Handler formats and stores records, guarded by its own monitor.
type Handler struct {
	mu      *locks.Mutex
	level   Level
	records []string
}

// NewHandler returns a handler accepting records at or above level.
func NewHandler(level Level) *Handler {
	return &Handler{mu: locks.NewMutex("logging.handler"), level: level}
}

// publishLocked formats r; caller holds h.mu.
func (h *Handler) publishLocked(r Record) {
	if r.Level >= h.level {
		h.records = append(h.records, fmt.Sprintf("[%d] %s", r.Level, r.Message))
	}
}

// Logger dispatches records to its handler, guarded by its own monitor.
type Logger struct {
	mu      *locks.Mutex
	level   Level
	handler *Handler
	cfg     *Config
}

// NewLogger returns a logger at the given level with one handler.
func NewLogger(level Level, h *Handler, cfg *Config) *Logger {
	return &Logger{mu: locks.NewMutex("logging.logger"), level: level, handler: h, cfg: cfg}
}

// Log publishes a record: Logger monitor, then Handler monitor.
func (l *Logger) Log(r Record) {
	l.mu.LockAt("Logger.java:log")
	defer l.mu.Unlock()
	if r.Level < l.level {
		return
	}
	if l.cfg != nil && l.cfg.Breakpoint {
		l.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, l.mu, l.handler.mu), true,
			core.Options{Timeout: l.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: the java.util.logging deadlock repro (Logger then Handler)
	l.handler.mu.LockAt("Handler.java:publish")
	defer l.handler.mu.Unlock()
	l.handler.publishLocked(r)
}

// Reconfigure adjusts the handler's level based on the logger's:
// Handler monitor, then Logger monitor — the inverted order.
func (l *Logger) Reconfigure(level Level) {
	l.handler.mu.LockAt("Handler.java:setLevel")
	defer l.handler.mu.Unlock()
	if l.cfg != nil && l.cfg.Breakpoint {
		l.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, l.handler.mu, l.mu), false,
			core.Options{Timeout: l.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: the java.util.logging deadlock repro (Handler then Logger)
	l.mu.LockAt("Logger.java:getLevel")
	defer l.mu.Unlock()
	if level < l.level {
		level = l.level
	}
	l.handler.level = level
}

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Breakpoint bool
	Timeout    time.Duration
	// StallAfter bounds deadlock detection (default 2s).
	StallAfter time.Duration
}

// numRecords is the log volume.
const numRecords = 50

func (c *Config) stallAfter() time.Duration {
	if c.StallAfter <= 0 {
		return 2 * time.Second
	}
	return c.StallAfter
}

// Run logs records on one goroutine while another reconfigures the
// handler; the crossed lock orders deadlock when the breakpoint aligns
// them.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	h := NewHandler(Info)
	l := NewLogger(Fine, h, &cfg)
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		done := make(chan struct{}, 2)
		go func() {
			for i := 0; i < numRecords; i++ {
				l.Log(Record{Level: Info, Message: fmt.Sprintf("event %d", i)})
			}
			done <- struct{}{}
		}()
		go func() {
			l.Reconfigure(Warning)
			done <- struct{}{}
		}()
		<-done
		<-done
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BPDeadlock).Hits() > 0
	return res
}
