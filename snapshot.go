package feww

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Engine-level checkpointing composes the per-shard core snapshots into
// one container.  The container records the resolved engine configuration
// (so a restored engine re-creates the identical partitioning and queue
// tuning), the producer-side element counter, and each shard's
// length-prefixed core snapshot in shard order.  The serialisation loop
// itself is the generic runtime's (runtime.go): a snapshot is taken after
// an internal barrier, so the queues are empty at the instant of
// serialisation and nothing in flight can be lost — every element the
// engine accepted is inside some shard's state.  Snapshot and restore here
// both walk the kind's one header field list (engineKind.header).
//
// Layout (all fixed-width fields little-endian uint64 unless noted):
//
//	magic   [8]byte "FEWWENG1"
//	kind    byte    0 = insertion-only Engine, 1 = TurnstileEngine,
//	                2 = StarEngine, 3 = WindowEngine
//	header  kind-specific configuration (the codec's field list), then
//	        the element count
//	shards  Shards times: byte length, then that shard's core snapshot
var engineSnapMagic = [8]byte{'F', 'E', 'W', 'W', 'E', 'N', 'G', '1'}

const (
	engineKindInsertOnly = 0
	engineKindTurnstile  = 1
	engineKindStar       = 2
	engineKindWindow     = 3
)

// Snapshot writes the engine's complete state to w: resolved
// configuration, the ingest counter, and every shard's core snapshot.
// The engine quiesces first (flush + barrier), so the snapshot reflects
// exactly the elements fed before the call; concurrent producers block
// until serialisation finishes.  Restoring with the kind's Restore
// function and feeding the same stream suffix reproduces the
// uninterrupted run exactly.
func (b *engineBase[C, E]) Snapshot(w io.Writer) error {
	return b.rt.snapshot(w, b.kind, b.header(&b.cfg))
}

// SnapshotSize returns the exact byte length Snapshot would write, under
// the same quiesce Snapshot itself takes.
func (b *engineBase[C, E]) SnapshotSize() int {
	_, size := b.UsageFresh()
	return size
}

// RestoreEngine reads a snapshot written by (*Engine).Snapshot and returns
// a running engine that continues exactly where the snapshotted one
// stopped, including its shard partitioning and batch/queue tuning.  It
// fails with ErrBadSnapshot if the bytes hold another engine kind's
// snapshot (use RestoreTurnstileEngine / RestoreStarEngine /
// RestoreWindowEngine) or are corrupt.
func RestoreEngine(r io.Reader) (*Engine, error) { return restore(r, insertOnlyKind) }

// RestoreTurnstileEngine reads a snapshot written by
// (*TurnstileEngine).Snapshot and returns a running engine that continues
// exactly where the snapshotted one stopped.
func RestoreTurnstileEngine(r io.Reader) (*TurnstileEngine, error) { return restore(r, turnstileKind) }

// restore is the one FEWWENG1 decoder: magic and kind byte, k's header
// fields and the count, validated before anything is allocated on their
// behalf; build's assembly step checks the kind-specific fields.
func restore[C engineConfig, E any, T engineFacade[C, E]](r io.Reader, k *engineKind[C, E, T]) (T, error) {
	var zero T
	br := bufio.NewReader(r)
	var head [9]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return zero, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if [8]byte(head[:8]) != engineSnapMagic {
		return zero, fmt.Errorf("%w: bad engine magic %q", ErrBadSnapshot, head[:8])
	}
	if head[8] != k.kind {
		return zero, fmt.Errorf("%w: snapshot holds engine kind %d, not a %s (kind %d)", ErrBadSnapshot, head[8], k.name, k.kind)
	}
	var cfg C
	dec := &wordDecoder{r: br}
	for _, f := range k.header(&cfg) {
		dec.field(f)
	}
	count := int64(dec.u64())
	if dec.err != nil {
		return zero, dec.err
	}
	if err := validateEngineSnapHeader(cfg.dims(), count); err != nil {
		return zero, err
	}
	return build(k, cfg, count, dec)
}

// Upper bounds a snapshot header may claim before any allocation is made
// on its behalf.  Far above anything an engine can be configured to, far
// below anything that could OOM the restoring process — a corrupt header
// must fail as ErrBadSnapshot, not as a makeslice panic.
const (
	maxSnapShards     = 1 << 20
	maxSnapBatchSize  = 1 << 24
	maxSnapQueueDepth = 1 << 16
)

// validateEngineSnapHeader sanity-checks the decoded header before any
// shard is reconstructed.
func validateEngineSnapHeader(d engineDims, count int64) error {
	switch {
	case d.n < 1:
		return fmt.Errorf("%w: N = %d", ErrBadSnapshot, d.n)
	case d.shards < 1 || int64(d.shards) > d.n || d.shards > maxSnapShards:
		return fmt.Errorf("%w: %d shards with N = %d", ErrBadSnapshot, d.shards, d.n)
	case d.batchSize < 1 || d.batchSize > maxSnapBatchSize:
		return fmt.Errorf("%w: batch size %d", ErrBadSnapshot, d.batchSize)
	case d.queueDepth < 1 || d.queueDepth > maxSnapQueueDepth:
		return fmt.Errorf("%w: queue depth %d", ErrBadSnapshot, d.queueDepth)
	case count < 0:
		return fmt.Errorf("%w: element count %d", ErrBadSnapshot, count)
	}
	return nil
}

// restoreShard reads one length-prefixed shard snapshot and restores it
// with the given core restore function, verifying the declared length is
// consumed exactly.
func restoreShard[T any](dec *wordDecoder, restore func(io.Reader) (T, error), idx int) (T, error) {
	var zero T
	size := int64(dec.u64())
	if dec.err != nil {
		return zero, dec.err
	}
	if size < 0 {
		return zero, fmt.Errorf("%w: shard %d snapshot length %d", ErrBadSnapshot, idx, size)
	}
	lr := io.LimitReader(dec.r, size)
	inner, err := restore(lr)
	if err != nil {
		return zero, fmt.Errorf("shard %d: %w", idx, err)
	}
	if left, _ := io.Copy(io.Discard, lr); left != 0 {
		return zero, fmt.Errorf("%w: shard %d snapshot has %d trailing bytes", ErrBadSnapshot, idx, left)
	}
	return inner, nil
}

// wordEncoder / wordDecoder mirror the little-endian fixed-width helpers
// of internal/core for the engine container's own fields.
type wordEncoder struct {
	w   io.Writer
	buf [8]byte
	err error
}

func (e *wordEncoder) bytes(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

func (e *wordEncoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.bytes(e.buf[:])
}

// field writes one header field; see engineKind.header for the types.
func (e *wordEncoder) field(p any) {
	switch p := p.(type) {
	case *int64:
		e.u64(uint64(*p))
	case *int:
		e.u64(uint64(*p))
	case *uint64:
		e.u64(*p)
	case *float64:
		e.u64(math.Float64bits(*p))
	}
}

type wordDecoder struct {
	r   io.Reader
	buf [8]byte
	err error
}

func (d *wordDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if _, err := io.ReadFull(d.r, d.buf[:]); err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[:])
}

// field reads one header field into the pointer wordEncoder.field wrote
// it from.
func (d *wordDecoder) field(p any) {
	switch p := p.(type) {
	case *int64:
		*p = int64(d.u64())
	case *int:
		*p = int(d.u64())
	case *uint64:
		*p = d.u64()
	case *float64:
		*p = math.Float64frombits(d.u64())
	}
}
