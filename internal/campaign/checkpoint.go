package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"cbreak/internal/harness"
	"cbreak/internal/journal"
)

// checkpointVersion is bumped on incompatible record-schema changes;
// resume refuses mismatched versions rather than misreading records.
const checkpointVersion = 1

// Header is the first record of a checkpoint journal. The seed is
// recorded so -resume can refuse a checkpoint written under a different
// -seed: mixing journaled trials from one seed with fresh trials from
// another would silently corrupt the campaign's reproducibility.
type Header struct {
	Kind    string `json:"kind"` // always "campaign-checkpoint"
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
}

// Record is one journaled trial: its address, per-trial seed, how many
// attempts it took (1 = no retries), and the full outcome including the
// engine's guard incident counters and per-breakpoint stats snapshots.
// Payloads are JSON, one per journal record, so the checkpoint stays
// greppable — e.g. `grep -a '"panic"' <dir>/seg-*.wal` surfaces
// hardening regressions.
type Record struct {
	Key      harness.TrialKey     `json:"key"`
	Trial    int                  `json:"trial"`
	Seed     int64                `json:"seed"`
	Attempts int                  `json:"attempts"`
	Outcome  harness.TrialOutcome `json:"outcome"`
}

type recordKey struct {
	key   harness.TrialKey
	trial int
}

// Checkpoint journals completed trials into a crash-safe write-ahead
// journal (internal/journal): CRC-framed records in rotated segments,
// so a SIGKILL or power cut at ANY instant — including mid-write —
// costs at most the record being written; reopening truncates the torn
// tail and a resumed campaign re-runs only what is missing. Safe for
// concurrent use by pool workers.
type Checkpoint struct {
	mu     sync.Mutex
	j      *journal.Journal
	header Header
	done   map[recordKey]Record

	recovery journal.RecoveryInfo
}

// ErrSeedMismatch is returned when resuming a checkpoint written under
// a different seed.
var ErrSeedMismatch = errors.New("campaign: checkpoint seed does not match -seed")

// OpenOptions creates or resumes the checkpoint journal at path (a
// directory). Resuming a path that does not exist starts a fresh
// journal; resuming one whose header seed differs from seed fails with
// ErrSeedMismatch. Without resume, whatever is at path is discarded.
func OpenOptions(path string, seed int64, resume bool, sync journal.SyncPolicy) (*Checkpoint, error) {
	cp := &Checkpoint{
		header: Header{Kind: "campaign-checkpoint", Version: checkpointVersion, Seed: seed},
		done:   make(map[recordKey]Record),
	}
	if !resume {
		// A fresh (non-resume) campaign truncates: yesterday's journal
		// must not leak stale trials into today's tables.
		if err := os.RemoveAll(path); err != nil {
			return nil, fmt.Errorf("campaign: clear old checkpoint: %w", err)
		}
	}
	j, err := journal.Open(journal.Options{Dir: path, Sync: sync})
	if err != nil {
		return nil, fmt.Errorf("campaign: open checkpoint journal: %w", err)
	}
	cp.j = j
	cp.recovery = j.Recovery()

	if resume {
		if err := cp.replay(path, seed); err != nil {
			j.Close()
			return nil, err
		}
	}
	if cp.j.Len() == 0 {
		if err := cp.appendJSON(cp.header); err != nil {
			j.Close()
			return nil, err
		}
	}
	return cp, nil
}

// replay loads an existing checkpoint journal into the done index. The
// journal layer has already verified checksums and truncated any torn
// tail, so every payload here is a complete record; a payload that
// still fails to parse means a schema break, which is an error.
func (c *Checkpoint) replay(path string, seed int64) error {
	_, err := journal.Replay(path, func(lsn uint64, payload []byte) error {
		if lsn == 1 {
			var h Header
			if err := json.Unmarshal(payload, &h); err != nil || h.Kind != "campaign-checkpoint" {
				return fmt.Errorf("campaign: %s is not a campaign checkpoint", path)
			}
			if h.Version != checkpointVersion {
				return fmt.Errorf("campaign: checkpoint %s has version %d, this binary writes %d", path, h.Version, checkpointVersion)
			}
			if h.Seed != seed {
				return fmt.Errorf("%w: checkpoint %s was written with seed %d, got -seed %d; re-run with -seed %d or start a fresh checkpoint",
					ErrSeedMismatch, path, h.Seed, seed, h.Seed)
			}
			return nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("campaign: checkpoint %s record %d does not parse: %v", path, lsn, err)
		}
		c.done[recordKey{rec.Key, rec.Trial}] = rec
		return nil
	})
	return err
}

// Lookup returns the journaled record for (key, trial), if any.
func (c *Checkpoint) Lookup(key harness.TrialKey, trial int) (Record, bool) {
	if c == nil {
		return Record{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.done[recordKey{key, trial}]
	return rec, ok
}

// Append journals a completed trial. With the default per-record fsync
// policy the record is durable before Append returns, so not even a
// SIGKILL immediately after can lose the trial.
func (c *Checkpoint) Append(rec Record) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := c.j.Append(line); err != nil {
		return err
	}
	c.done[recordKey{rec.Key, rec.Trial}] = rec
	return nil
}

func (c *Checkpoint) appendJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = c.j.Append(line)
	return err
}

// Len returns how many trials the journal holds.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Recovery reports what the journal layer found on open: records
// recovered, segments read, and the torn tail (if any) it truncated.
func (c *Checkpoint) Recovery() journal.RecoveryInfo {
	if c == nil {
		return journal.RecoveryInfo{}
	}
	return c.recovery
}

// Close syncs and closes the journal.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.j == nil {
		return nil
	}
	err := c.j.Close()
	c.j = nil
	return err
}
