package feww

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"feww/internal/workload"
)

func engineSnapWorkload(t testing.TB) *workload.Planted {
	t.Helper()
	inst, err := workload.NewPlanted(workload.PlantedConfig{
		N: 400, M: 4000, Heavy: 3, HeavyDeg: 60,
		NoiseEdges: 3000, Order: workload.Shuffled, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func engineSnapCfg() EngineConfig {
	return EngineConfig{
		Config: Config{N: 400, D: 60, Alpha: 2, Seed: 9},
		Shards: 4, BatchSize: 64, QueueDepth: 4,
	}
}

// TestEngineSnapshotContinuation checks the acceptance property at the
// sharded layer: checkpoint mid-stream, restore, feed the identical
// suffix, and the final state is byte-identical to an uninterrupted run —
// and so are the reported results.
func TestEngineSnapshotContinuation(t *testing.T) {
	inst := engineSnapWorkload(t)

	full, err := NewEngine(engineSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	for _, u := range inst.Updates {
		full.ProcessEdge(u.A, u.B)
	}

	half, err := NewEngine(engineSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	cut := len(inst.Updates) / 2
	for _, u := range inst.Updates[:cut] {
		half.ProcessEdge(u.A, u.B)
	}
	var buf bytes.Buffer
	if err := half.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := half.SnapshotSize(), buf.Len(); got != want {
		t.Fatalf("SnapshotSize = %d, actual = %d", got, want)
	}
	half.Close()

	resumed, err := RestoreEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Processed() != int64(cut) {
		t.Fatalf("restored engine reports %d edges, want %d", resumed.Processed(), cut)
	}
	if resumed.Shards() != full.Shards() {
		t.Fatalf("restored engine has %d shards, want %d", resumed.Shards(), full.Shards())
	}
	for _, u := range inst.Updates[cut:] {
		resumed.ProcessEdge(u.A, u.B)
	}

	var a, b bytes.Buffer
	if err := full.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resumed engine diverged from uninterrupted engine")
	}

	want := full.Results()
	got := resumed.Results()
	if len(want) == 0 {
		t.Fatal("uninterrupted engine found nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("resumed engine found %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].A != want[i].A {
			t.Fatalf("result %d: vertex %d, want %d", i, got[i].A, want[i].A)
		}
		if err := inst.Verify(got[i].A, got[i].Witnesses); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineSnapshotOfClosedEngine: a closed engine is still queryable,
// so it must also still be snapshot-able (the shutdown checkpoint path).
func TestEngineSnapshotOfClosedEngine(t *testing.T) {
	inst := engineSnapWorkload(t)
	eng, err := NewEngine(engineSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range inst.Updates {
		eng.ProcessEdge(u.A, u.B)
	}
	eng.Close()
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Processed() != eng.Processed() {
		t.Fatalf("edges %d, want %d", restored.Processed(), eng.Processed())
	}
}

func turnstileEngineSnapCfg() TurnstileEngineConfig {
	return TurnstileEngineConfig{
		TurnstileConfig: TurnstileConfig{N: 64, M: 128, D: 8, Alpha: 2, Seed: 13, ScaleFactor: 0.02},
		Shards:          4, BatchSize: 32, QueueDepth: 4,
	}
}

func TestTurnstileEngineSnapshotContinuation(t *testing.T) {
	inst, err := workload.NewChurn(workload.ChurnConfig{
		Planted: workload.PlantedConfig{
			N: 64, M: 128, Heavy: 2, HeavyDeg: 8,
			NoiseEdges: 80, MaxNoise: 2, Order: workload.Shuffled, Seed: 3,
		},
		ChurnEdges: 200,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}

	full, err := NewTurnstileEngine(turnstileEngineSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	full.ProcessUpdates(inst.Updates)

	half, err := NewTurnstileEngine(turnstileEngineSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	cut := len(inst.Updates) / 2
	half.ProcessUpdates(inst.Updates[:cut])
	var buf bytes.Buffer
	if err := half.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := half.SnapshotSize(), buf.Len(); got != want {
		t.Fatalf("SnapshotSize = %d, actual = %d", got, want)
	}
	half.Close()

	resumed, err := RestoreTurnstileEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Processed() != int64(cut) {
		t.Fatalf("restored engine reports %d updates, want %d", resumed.Processed(), cut)
	}
	resumed.ProcessUpdates(inst.Updates[cut:])

	var a, b bytes.Buffer
	if err := full.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resumed turnstile engine diverged from uninterrupted engine")
	}

	nbFull, errFull := full.Result()
	nbRes, errRes := resumed.Result()
	if (errFull == nil) != (errRes == nil) {
		t.Fatalf("result disagreement: full err %v, resumed err %v", errFull, errRes)
	}
	if errFull == nil {
		if nbFull.A != nbRes.A {
			t.Fatalf("resumed found vertex %d, full found %d", nbRes.A, nbFull.A)
		}
		if err := inst.Verify(nbRes.A, nbRes.Witnesses); err != nil {
			t.Fatal(err)
		}
	}
}

// restoreContainer is one engine kind's snapshot, fed to the corrupt and
// hostile cases below, with the header word indices (after magic and
// kind byte) of the fields every kind shares.
type restoreContainer struct {
	name    string
	snap    []byte
	restore func(io.Reader) error
	// Header word indices of N, Shards, BatchSize, QueueDepth and the
	// element count, plus kind-specific hostile words.
	n, shards, batch, queue, count int
	hostile                        map[string]map[int]uint64
}

// restoreErr adapts a kind's Restore function, closing an engine that was
// (wrongly) accepted so the test leaks no shard goroutines.
func restoreErr[T interface{ Close() }](restore func(io.Reader) (T, error)) func(io.Reader) error {
	return func(r io.Reader) error {
		eng, err := restore(r)
		if err == nil {
			eng.Close()
		}
		return err
	}
}

// restoreContainers builds a small engine of every kind, feeds it a few
// elements, and returns its snapshot with the kind's restore path.
func restoreContainers(t *testing.T) []restoreContainer {
	t.Helper()
	snap := func(eng interface {
		Snapshot(io.Writer) error
		Close()
	}) []byte {
		defer eng.Close()
		var buf bytes.Buffer
		if err := eng.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ieng, err := NewEngine(engineSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	teng, err := NewTurnstileEngine(turnstileEngineSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	seng, err := NewStarEngine(StarEngineConfig{N: 40, Alpha: 1, Seed: 5, Shards: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	weng, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: 40, D: 4, Alpha: 2, Seed: 6}, Window: 32, Buckets: 4, Shards: 2, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		if err := errors.Join(ieng.ProcessEdge(i%7, i), teng.Insert(i%7, i), seng.ProcessEdge(i%5, 5+i), weng.ProcessEdge(i%7, i)); err != nil {
			t.Fatal(err)
		}
	}
	return []restoreContainer{
		// Engine: N, D, Alpha, Seed, ScaleFactor, Shards, BatchSize, QueueDepth, count.
		{name: "insert-only", snap: snap(ieng), restore: restoreErr(RestoreEngine),
			n: 0, shards: 5, batch: 6, queue: 7, count: 8},
		// TurnstileEngine: N, M, D, Alpha, Seed, ScaleFactor, MaxSamplers,
		// Shards, BatchSize, QueueDepth, count.
		{name: "turnstile", snap: snap(teng), restore: restoreErr(RestoreTurnstileEngine),
			n: 0, shards: 7, batch: 8, queue: 9, count: 10,
			hostile: map[string]map[int]uint64{"inflated M": {1: 1 << 40}}},
		// StarEngine: N, M, Alpha, Eps, Seed, ScaleFactor, Shards,
		// BatchSize, QueueDepth, count.
		{name: "star", snap: snap(seng), restore: restoreErr(RestoreStarEngine),
			n: 0, shards: 6, batch: 7, queue: 8, count: 9,
			hostile: map[string]map[int]uint64{
				"M below N":    {1: 1},
				"zero alpha":   {2: 0},
				"NaN eps":      {3: math.Float64bits(math.NaN())},
				"tiny eps":     {3: math.Float64bits(1e-300)},
				"huge M":       {1: math.MaxInt64},
				"negative M":   {1: ^uint64(0)},
				"infinite eps": {3: math.Float64bits(math.Inf(1))},
			}},
		// WindowEngine: N, D, Alpha, Window, Buckets, Seed, ScaleFactor,
		// Shards, BatchSize, QueueDepth, count.
		{name: "window", snap: snap(weng), restore: restoreErr(RestoreWindowEngine),
			n: 0, shards: 7, batch: 8, queue: 9, count: 10,
			hostile: map[string]map[int]uint64{
				"zero window":          {3: 0},
				"buckets above window": {4: 1 << 40},
				"zero buckets":         {4: 0},
			}},
	}
}

// TestRestoreEngineKindMismatch feeds every kind's container through the
// one restore path with the wrong kind, corrupted, truncated and with
// hostile headers.  Every case must fail with an error — wrapping
// ErrBadSnapshot wherever the bytes are well-formed enough to say why —
// and none may panic or allocate on a hostile header's behalf.
func TestRestoreEngineKindMismatch(t *testing.T) {
	kinds := restoreContainers(t)
	for i, k := range kinds {
		other := kinds[(i+1)%len(kinds)]
		if err := other.restore(bytes.NewReader(k.snap)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s restore of a %s snapshot: got %v, want ErrBadSnapshot", other.name, k.name, err)
		}
	}

	t.Run("corrupt", func(t *testing.T) {
		for _, k := range kinds {
			t.Run(k.name, func(t *testing.T) {
				good := k.snap
				if err := k.restore(bytes.NewReader(nil)); !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("empty: got %v", err)
				}
				bad := append([]byte(nil), good...)
				bad[0] ^= 0xff
				if err := k.restore(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("bad magic: got %v", err)
				}
				// Cut inside the magic, the header, the first shard's length
				// prefix, and at fractions of the whole container.
				header := 8 + 1 + 8*(k.count+1)
				for _, cut := range []int{5, 9, header - 3, header + 4, len(good) / 2, len(good) / 3, len(good) / 10, len(good) - 1} {
					if err := k.restore(bytes.NewReader(good[:cut])); err == nil {
						t.Fatalf("truncation to %d of %d bytes accepted", cut, len(good))
					}
				}
			})
		}
	})

	// A header claiming absurd dimensions must fail as ErrBadSnapshot
	// before any allocation is attempted on its behalf.
	t.Run("hostile header", func(t *testing.T) {
		for _, k := range kinds {
			t.Run(k.name, func(t *testing.T) {
				cases := map[string]map[int]uint64{
					"huge shards":     {k.n: 1 << 41, k.shards: 1 << 40}, // N raised so shards <= N passes
					"huge batch":      {k.batch: 1 << 40},
					"huge queue":      {k.queue: 1 << 40},
					"negative shards": {k.shards: ^uint64(0)},
					"zero N":          {k.n: 0},
					"negative count":  {k.count: ^uint64(0)},
				}
				for name, fields := range k.hostile {
					cases[name] = fields
				}
				for name, fields := range cases {
					bad := append([]byte(nil), k.snap...)
					for idx, v := range fields {
						binary.LittleEndian.PutUint64(bad[8+1+8*idx:], v)
					}
					if err := k.restore(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
						t.Fatalf("%s: got %v, want ErrBadSnapshot", name, err)
					}
				}
			})
		}
	})
}

// TestRestoreRejectsContainerShardMismatch: a container header whose
// configuration does not derive the embedded shard snapshots must be
// rejected — otherwise an engine restored from it would run with a wrong
// local/global mapping (or universe bound) and panic in a worker
// goroutine later, at ingest time.
func TestRestoreRejectsContainerShardMismatch(t *testing.T) {
	eng, err := NewTurnstileEngine(turnstileEngineSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Container u64 field order after magic+kind: N, M, D, Alpha, Seed,
	// ScaleFactor, MaxSamplers, Shards, BatchSize, QueueDepth, count.
	// Inflate the container's M: every shard snapshot still says M=128,
	// so the cross-check must fire instead of restoring an engine that
	// would accept B up to the bogus bound.
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(bad[8+1+8*1:], 1<<20)
	if _, err := RestoreTurnstileEngine(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("inflated container M: got %v, want ErrBadSnapshot", err)
	}

	// Same for the insert-only container: flip D.
	ieng, err := NewEngine(engineSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer ieng.Close()
	buf.Reset()
	if err := ieng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	bad = append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint64(bad[8+1+8*1:], 9999) // container D
	if _, err := RestoreEngine(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("altered container D: got %v, want ErrBadSnapshot", err)
	}
}
