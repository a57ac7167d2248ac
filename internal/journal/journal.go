// Package journal is a crash-safe, segment-rotated write-ahead journal:
// the durable substrate under campaign checkpoints and the engine's
// opt-in durable event/incident sinks. Its contract is the recovery
// invariant the kill-anywhere tests enforce — kill the writing process
// at ANY instant (between or inside individual writes, fsyncs, and
// renames) and reopening the directory recovers a clean prefix of the
// appended records: every record whose Append was acknowledged durable
// survives, no torn or checksum-invalid record is ever surfaced, and
// the torn tail left by the crash is silently truncated.
//
// Layout: a journal is a directory of append-only segment files
// (seg-00000001.wal, seg-00000002.wal, ...) plus a MANIFEST sealing the
// rotated ones. Records are CRC-32C-framed and length-prefixed
// (segment.go); rotation and manifest replacement use atomic renames
// with directory fsyncs (manifest.go). Durability is configurable per
// journal: fsync every record, group-commit on an interval, or leave
// flushing to the OS (SyncPolicy).
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncEachRecord fsyncs inside every Append: an acknowledged record
	// is durable. The safest and slowest policy, right for low-rate
	// journals whose records are expensive to lose (campaign
	// checkpoints journal one record per multi-second trial).
	SyncEachRecord SyncPolicy = iota
	// SyncInterval group-commits: appends return after the buffered
	// write and a background flusher fsyncs every Interval. A crash
	// loses at most the records of the last uncommitted group. Right
	// for high-rate streams (engine event sinks).
	SyncInterval
	// SyncNone never fsyncs explicitly (the OS flushes when it
	// pleases). Recovery still yields a clean prefix — just a shorter
	// one.
	SyncNone
)

// String returns the policy's flag-friendly name.
func (p SyncPolicy) String() string {
	switch p {
	case SyncEachRecord:
		return "record"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy inverts SyncPolicy.String.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "record":
		return SyncEachRecord, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("journal: unknown sync policy %q (want record, interval, or none)", s)
	}
}

// Options parameterizes Open. Zero fields take the defaults noted.
type Options struct {
	// Dir is the journal directory (required; created if absent).
	Dir string
	// Sync is the fsync policy (default SyncEachRecord).
	Sync SyncPolicy
	// Interval is the group-commit period for SyncInterval (default
	// 25ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 4 MiB; every segment holds at least one record
	// regardless).
	SegmentBytes int64
	// FS overrides the filesystem, which is how the crash harness
	// injects process death into individual writes/fsyncs/renames (nil
	// = the real filesystem).
	FS FS
}

// RecoveryInfo describes what Open (or Replay) found.
type RecoveryInfo struct {
	// Records is how many valid records the journal held.
	Records uint64
	// Segments is how many segment files were read.
	Segments int
	// TruncatedBytes is the size of the torn tail dropped from the last
	// segment (0 when the journal was clean).
	TruncatedBytes int64
	// TornSegment names the segment file that was truncated, if any.
	TornSegment string
	// TornReason says why the tail was invalid ("torn record payload",
	// "bad checksum", ...).
	TornReason string
}

// Journal is an open write-ahead journal. Safe for concurrent use by
// multiple appenders; a single Journal owns its directory (the package
// does not arbitrate between processes).
type Journal struct {
	opts Options
	fs   FS

	mu            sync.Mutex
	active        File
	activeSeq     uint64
	activeBytes   int64
	activeRecords uint64
	sealed        []sealedSegment
	lsn           uint64
	dirty         bool
	err           error // sticky: first FS failure kills the journal
	closed        bool
	rec           RecoveryInfo

	flushStop chan struct{}
	flushDone chan struct{}
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Open opens (creating or recovering) the journal in opts.Dir. Recovery
// replays the manifest and segments, verifies every sealed record's
// checksum, truncates the torn tail a crash may have left on the active
// segment, and positions the journal to append after the last valid
// record. Damage anywhere except the unsealed tail fails with an
// ErrCorrupt-wrapped error instead of surfacing bad records.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, errors.New("journal: Options.Dir is required")
	}
	if opts.FS == nil {
		opts.FS = OSFS()
	}
	if opts.Interval <= 0 {
		opts.Interval = 25 * time.Millisecond
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	// A crash during a manifest replacement can leave the temp file;
	// it carries no durable state.
	os.Remove(filepath.Join(opts.Dir, manifestTmp))

	j := &Journal{opts: opts, fs: opts.FS}
	st, err := recoverDir(opts.Dir, true)
	if err != nil {
		return nil, err
	}
	j.sealed = st.sealed
	j.lsn = st.records
	j.rec = st.info

	if st.tailSeq != 0 {
		// Continue appending to the unsealed tail segment.
		f, err := j.fs.OpenAppend(segPath(opts.Dir, st.tailSeq))
		if err != nil {
			return nil, fmt.Errorf("journal: reopen tail segment: %w", err)
		}
		j.active = f
		j.activeSeq = st.tailSeq
		j.activeBytes = st.tailBytes
		j.activeRecords = st.tailRecords
	} else {
		// Fresh directory, or every segment is sealed: start the next one.
		if err := j.createSegment(st.nextSeq); err != nil {
			return nil, err
		}
	}
	if opts.Sync == SyncInterval {
		j.flushStop = make(chan struct{})
		j.flushDone = make(chan struct{})
		go j.flushLoop()
	}
	return j, nil
}

// Recovery reports what Open found on disk.
func (j *Journal) Recovery() RecoveryInfo { return j.rec }

// Len returns the number of records in the journal (recovered plus
// appended).
func (j *Journal) Len() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lsn
}

// Append journals one record and returns its LSN (1-based position).
// Durability on return follows the SyncPolicy. Any filesystem failure
// is fatal to the journal: the error sticks, and every later operation
// returns it — exactly the "stop at the instant of death" semantics the
// crash harness relies on.
func (j *Journal) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("journal: empty record")
	}
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte bound", len(payload), maxRecord)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if j.err != nil {
		return 0, j.err
	}
	frame := appendFrame(nil, payload)
	if j.activeRecords > 0 && j.activeBytes+int64(len(frame)) > j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			j.err = err
			return 0, err
		}
	}
	n, err := j.active.Write(frame)
	if err != nil {
		j.err = fmt.Errorf("journal: append: %w", err)
		return 0, j.err
	}
	if n < len(frame) {
		j.err = fmt.Errorf("journal: short append (%d of %d bytes)", n, len(frame))
		return 0, j.err
	}
	if j.opts.Sync == SyncEachRecord {
		if err := j.active.Sync(); err != nil {
			j.err = fmt.Errorf("journal: sync: %w", err)
			return 0, j.err
		}
	} else {
		j.dirty = true
	}
	j.activeBytes += int64(len(frame))
	j.activeRecords++
	j.lsn++
	return j.lsn, nil
}

// Sync forces everything appended so far to disk, regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.closed {
		return ErrClosed
	}
	if j.err != nil {
		return j.err
	}
	if err := j.active.Sync(); err != nil {
		j.err = fmt.Errorf("journal: sync: %w", err)
		return j.err
	}
	j.dirty = false
	return nil
}

// Close flushes and closes the journal. The active segment stays
// unsealed: the next Open continues appending to it, so open/close
// cycles do not proliferate segments.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	if j.flushStop != nil {
		close(j.flushStop)
	}
	j.mu.Unlock()
	if j.flushDone != nil {
		<-j.flushDone
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	var err error
	if j.err == nil {
		if serr := j.active.Sync(); serr != nil {
			err = fmt.Errorf("journal: sync on close: %w", serr)
		}
	}
	if cerr := j.active.Close(); cerr != nil && err == nil && j.err == nil {
		err = fmt.Errorf("journal: close: %w", cerr)
	}
	return err
}

// rotateLocked seals the active segment and starts the next one:
// sync + close the active file, seal it in the manifest (atomic
// rename), then create the successor — in that order, so "a segment
// with a successor is sealed" holds at every crash point.
func (j *Journal) rotateLocked() error {
	if err := j.active.Sync(); err != nil {
		return fmt.Errorf("journal: rotate sync: %w", err)
	}
	if err := j.active.Close(); err != nil {
		return fmt.Errorf("journal: rotate close: %w", err)
	}
	j.sealed = append(j.sealed, sealedSegment{
		Seq: j.activeSeq, Records: j.activeRecords, Bytes: j.activeBytes})
	if err := writeManifest(j.fs, j.opts.Dir, manifest{Sealed: j.sealed}); err != nil {
		return err
	}
	return j.createSegment(j.activeSeq + 1)
}

// createSegment creates the (empty) segment seq and makes it active.
func (j *Journal) createSegment(seq uint64) error {
	f, err := j.fs.Create(segPath(j.opts.Dir, seq))
	if err != nil {
		return fmt.Errorf("journal: create segment: %w", err)
	}
	if err := j.fs.SyncDir(j.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	j.active = f
	j.activeSeq = seq
	j.activeBytes = 0
	j.activeRecords = 0
	return nil
}

// flushLoop is the SyncInterval group-commit flusher.
func (j *Journal) flushLoop() {
	defer close(j.flushDone)
	t := time.NewTicker(j.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-j.flushStop:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.closed && j.err == nil && j.dirty {
				if err := j.active.Sync(); err != nil {
					j.err = fmt.Errorf("journal: group commit: %w", err)
				} else {
					j.dirty = false
				}
			}
			j.mu.Unlock()
		}
	}
}

// dirState is the outcome of scanning a journal directory.
type dirState struct {
	sealed  []sealedSegment
	records uint64
	// tailSeq is the unsealed tail segment (0 = none: fresh dir or all
	// sealed); tailBytes/tailRecords are its valid extent.
	tailSeq     uint64
	tailBytes   int64
	tailRecords uint64
	// nextSeq is the sequence to create when there is no tail.
	nextSeq uint64
	info    RecoveryInfo
	// payloads is filled by Replay (repair=false) only.
	payloads [][]byte
}

// recoverDir scans and validates dir. With repair=true the torn tail is
// truncated on disk (Open); with repair=false payloads are collected
// and the tail merely ignored (Replay).
func recoverDir(dir string, repair bool) (dirState, error) {
	st := dirState{nextSeq: 1}
	m, err := readManifest(dir)
	if err != nil {
		return st, err
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return st, fmt.Errorf("journal: list segments: %w", err)
	}
	sealedBySeq := make(map[uint64]sealedSegment, len(m.Sealed))
	for _, s := range m.Sealed {
		sealedBySeq[s.Seq] = s
	}
	present := make(map[uint64]bool, len(seqs))
	for _, seq := range seqs {
		present[seq] = true
	}
	for _, s := range m.Sealed {
		if !present[s.Seq] {
			return st, fmt.Errorf("%w: sealed segment %s is missing", ErrCorrupt, segName(s.Seq))
		}
	}
	st.info.Segments = len(seqs)
	for i, seq := range seqs {
		last := i == len(seqs)-1
		path := segPath(dir, seq)
		scan, err := scanSegment(path)
		if err != nil {
			return st, fmt.Errorf("journal: read %s: %w", segName(seq), err)
		}
		sealed, isSealed := sealedBySeq[seq]
		switch {
		case isSealed:
			// Sealed segments are immutable and fully fsynced: any
			// mismatch with the manifest is corruption, not a crash.
			if !scan.clean() || scan.size != sealed.Bytes || uint64(len(scan.payloads)) != sealed.Records {
				reason := scan.badReason
				if reason == "" {
					reason = fmt.Sprintf("has %d records in %d bytes, manifest sealed %d in %d",
						len(scan.payloads), scan.size, sealed.Records, sealed.Bytes)
				}
				return st, fmt.Errorf("%w: sealed segment %s: %s", ErrCorrupt, segName(seq), reason)
			}
			st.sealed = append(st.sealed, sealed)
		case !last:
			// An unsealed segment with a successor cannot survive a
			// crash under the rotation protocol (seal-then-create) —
			// but a read-only Replay racing a LIVE writer can observe
			// it: the manifest was read before the writer sealed this
			// segment, the listing after it created the successor. The
			// successor's existence proves the segment was completely
			// written and fsynced first, so when the scan agrees
			// (clean to EOF) Replay accepts it as sealed-by-race.
			// Open (repair=true) keeps the strict check: it owns the
			// directory, so nobody may be writing, and tampering must
			// not be repaired over.
			if repair || !scan.clean() {
				return st, fmt.Errorf("%w: unsealed segment %s is followed by %s", ErrCorrupt, segName(seq), segName(seqs[i+1]))
			}
		default:
			// The unsealed tail: valid prefix survives, damage past it
			// is the crash's torn tail.
			if !scan.clean() {
				st.info.TruncatedBytes = scan.size - scan.good
				st.info.TornSegment = segName(seq)
				st.info.TornReason = scan.badReason
				if repair {
					if err := os.Truncate(path, scan.good); err != nil {
						return st, fmt.Errorf("journal: truncate torn tail of %s: %w", segName(seq), err)
					}
				}
			}
			st.tailSeq = seq
			st.tailBytes = scan.good
			st.tailRecords = uint64(len(scan.payloads))
		}
		st.records += uint64(len(scan.payloads))
		if !repair {
			st.payloads = append(st.payloads, scan.payloads...)
		}
		if seq >= st.nextSeq {
			st.nextSeq = seq + 1
		}
	}
	st.info.Records = st.records
	return st, nil
}

// Replay reads the journal in dir without opening it for writing: each
// valid record is passed to fn with its LSN, in order. The torn tail,
// if any, is skipped (and reported in the RecoveryInfo) but NOT
// truncated — Replay never modifies the directory, so it is safe on the
// journal of a crashed process that is being examined post-mortem.
func Replay(dir string, fn func(lsn uint64, payload []byte) error) (RecoveryInfo, error) {
	st, err := recoverDir(dir, false)
	if err != nil {
		return st.info, err
	}
	for i, p := range st.payloads {
		if err := fn(uint64(i+1), p); err != nil {
			return st.info, err
		}
	}
	return st.info, nil
}
