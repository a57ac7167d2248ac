package netchaos

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appkit"
)

// ClientConfig parameterizes a load-generator client. The timeout
// hierarchy is AttemptTimeout ≤ RequestTimeout: each attempt (dial +
// write + read) is bounded, the request including retries and backoff
// is bounded above it, and the caller typically runs the whole load
// under the trial deadline bounding everything.
type ClientConfig struct {
	// Addr is the server (or chaos proxy) address to dial.
	Addr string
	// Seed drives the retry backoff jitter; derive per-client seeds
	// with appkit.DeriveSeed so a seeded load replays its retry timing.
	Seed int64
	// Attempts is the per-request attempt cap (default 4: one try plus
	// three retries).
	Attempts int
	// RetryBudget caps retries across the client's lifetime; once
	// exhausted, requests fail fast on their first error instead of
	// amplifying an outage with retry storms. 0 = unlimited.
	RetryBudget int
	// AttemptTimeout bounds one dial+roundtrip (default 1s).
	AttemptTimeout time.Duration
	// RequestTimeout bounds one request including retries and backoff
	// (default 10s).
	RequestTimeout time.Duration
	// Backoff is the base retry delay, doubled per attempt and jittered
	// to [d/2, d] from the seeded stream (default 5ms).
	Backoff time.Duration
	// MaxBackoff caps backoff growth (default 250ms).
	MaxBackoff time.Duration
}

func (cfg *ClientConfig) defaults() {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 4
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 5 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 250 * time.Millisecond
	}
}

// ClientStats are a client's monotonic counters.
type ClientStats struct {
	// Requests is how many requests Do was asked to perform.
	Requests int64
	// OK counts requests that received a response line.
	OK int64
	// Retries counts re-attempts after transport errors.
	Retries int64
	// Failed counts requests that exhausted attempts, budget, or the
	// request timeout without a response.
	Failed int64
	// BudgetDenied counts retries suppressed by an exhausted budget.
	BudgetDenied int64
}

// Client is a line-protocol load client with seeded jittered
// exponential-backoff retries. Safe for concurrent use; concurrent
// requests draw from one jitter stream and one retry budget.
type Client struct {
	cfg    ClientConfig
	stream *appkit.Stream
	budget atomic.Int64

	requests, ok, retries, failed, denied atomic.Int64
}

// NewClient returns a client for cfg.
func NewClient(cfg ClientConfig) *Client {
	cfg.defaults()
	c := &Client{cfg: cfg, stream: appkit.NewStream(cfg.Seed)}
	if cfg.RetryBudget > 0 {
		c.budget.Store(int64(cfg.RetryBudget))
	} else {
		c.budget.Store(int64(^uint64(0) >> 2)) // effectively unlimited
	}
	return c
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests:     c.requests.Load(),
		OK:           c.ok.Load(),
		Retries:      c.retries.Load(),
		Failed:       c.failed.Load(),
		BudgetDenied: c.denied.Load(),
	}
}

// Do sends one request line and returns the one response line, retrying
// transport failures with jittered exponential backoff inside the
// request timeout and the client's retry budget. An error means the
// transport never delivered a response — infrastructure, not an
// application verdict.
func (c *Client) Do(line string) (string, error) {
	c.requests.Add(1)
	deadline := time.Now().Add(c.cfg.RequestTimeout)
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			delay := c.backoff(attempt - 1)
			if time.Now().Add(delay).After(deadline) {
				lastErr = fmt.Errorf("request timeout during backoff: %w", lastErr)
				break
			}
			time.Sleep(delay)
		}
		resp, err := c.roundTrip(line, deadline)
		if err == nil {
			c.ok.Add(1)
			return resp, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			break
		}
		if attempt+1 < c.cfg.Attempts {
			// Spend one unit of retry budget; when the budget is dry the
			// client degrades gracefully: fail fast, no retry storm.
			if c.budget.Add(-1) < 0 {
				c.budget.Add(1)
				c.denied.Add(1)
				break
			}
			c.retries.Add(1)
		}
	}
	c.failed.Add(1)
	return "", fmt.Errorf("netchaos client: request failed: %w", lastErr)
}

// roundTrip performs one attempt: dial, send the line, read one line.
func (c *Client) roundTrip(line string, reqDeadline time.Time) (string, error) {
	attemptDeadline := time.Now().Add(c.cfg.AttemptTimeout)
	if attemptDeadline.After(reqDeadline) {
		attemptDeadline = reqDeadline
	}
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, time.Until(attemptDeadline))
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if err := conn.SetDeadline(attemptDeadline); err != nil {
		return "", err
	}
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		return "", err
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(resp, "\n"), nil
}

// backoff returns the jittered exponential delay for the given 0-based
// retry ordinal, drawn from the client's seeded stream.
func (c *Client) backoff(retry int) time.Duration {
	return c.stream.Backoff(c.cfg.Backoff, c.cfg.MaxBackoff, retry)
}

// LoadConfig parameterizes RunLoad: Clients concurrent clients, each
// performing Requests sequential requests built by MakeRequest.
type LoadConfig struct {
	// Addr is the address every client dials (typically a chaos proxy).
	Addr string
	// Seed derives each client's retry-jitter seed (appkit.DeriveSeed).
	Seed int64
	// Clients is the number of concurrent clients (default 8).
	Clients int
	// Requests is the number of sequential requests per client
	// (default 4).
	Requests int
	// MakeRequest builds the request line for (client, request)
	// ordinals; nil sends "ping c r".
	MakeRequest func(client, request int) string
	// Client is the per-client configuration template (Addr and Seed
	// are overridden per client).
	Client ClientConfig
}

// LoadReport aggregates one RunLoad execution.
type LoadReport struct {
	// Clients and Requests echo the effective load shape.
	Clients, Requests int
	// Stats sums every client's counters.
	Stats ClientStats
	// Elapsed is the wall-clock span of the whole load.
	Elapsed time.Duration
}

// Degraded reports whether any request failed permanently — the load
// survived only by shedding work (graceful degradation) rather than
// completing it.
func (r LoadReport) Degraded() bool { return r.Stats.Failed > 0 }

// String formats the report for driver output.
func (r LoadReport) String() string {
	return fmt.Sprintf("%d clients × %d requests: ok=%d failed=%d retries=%d budget-denied=%d (%.2fs)",
		r.Clients, r.Requests, r.Stats.OK, r.Stats.Failed, r.Stats.Retries, r.Stats.BudgetDenied,
		r.Elapsed.Seconds())
}

// RunLoad drives Clients concurrent clients through Addr and aggregates
// their counters. Each client's retry jitter descends from
// DeriveSeed(Seed, client), so a seeded load replays its retry timing
// client-for-client.
func RunLoad(cfg LoadConfig) LoadReport {
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 4
	}
	if cfg.MakeRequest == nil {
		cfg.MakeRequest = func(client, request int) string {
			return fmt.Sprintf("ping %d %d", client, request)
		}
	}
	start := time.Now()
	clients := make([]*Client, cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		ccfg := cfg.Client
		ccfg.Addr = cfg.Addr
		ccfg.Seed = appkit.DeriveSeed(cfg.Seed, int64(i))
		clients[i] = NewClient(ccfg)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < cfg.Requests; r++ {
				clients[i].Do(cfg.MakeRequest(i, r))
			}
		}(i)
	}
	wg.Wait()
	rep := LoadReport{Clients: cfg.Clients, Requests: cfg.Requests, Elapsed: time.Since(start)}
	for _, c := range clients {
		st := c.Stats()
		rep.Stats.Requests += st.Requests
		rep.Stats.OK += st.OK
		rep.Stats.Retries += st.Retries
		rep.Stats.Failed += st.Failed
		rep.Stats.BudgetDenied += st.BudgetDenied
	}
	return rep
}
