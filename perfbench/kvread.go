package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"nvmstar"
)

// kv-read: a read-mostly key-value stream issued through the public
// nvmstar.System API. Each key is one 64-byte line; 95% of operations
// Load a key and check its value, 5% Store a new version and persist
// it. 80% of operations go to a hot fifth of the keys, and operations
// rotate over the eight cores. The footprint (8 MiB) is twice
// the modelled L3, so the run exercises the cache hierarchy, coherence
// and the read-verify path, and barely the write path.

const (
	kvKeys     = 1 << 17 // 8 MiB of 64-byte lines
	kvHotKeys  = kvKeys / 5
	kvCores    = 8
	kvWarmOps  = 100_000 // fills the modelled L3 and metadata cache
	kvRate     = 380_000 // nominal normalized ops/s
	kvBatchOps = 10_000  // ops per timed batch
)

// kvOp is one generated operation.
type kvOp struct {
	key   uint32
	store bool
}

// kvGen generates the operation stream: a splitmix64 sequence, so the
// same seed always yields the same stream.
type kvGen struct{ x uint64 }

func newKVGen(seed uint64) *kvGen { return &kvGen{x: seed * 0x9e3779b97f4a7c15} }

func (g *kvGen) u64() uint64 {
	g.x += 0x9e3779b97f4a7c15
	z := g.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *kvGen) next() kvOp {
	r := g.u64()
	// Low 7 bits pick the kind (5% ≈ 6/128 stores), bits 7-16 the hot
	// or cold set (80% ≈ 819/1024 hot), the high 32 bits the key.
	op := kvOp{store: r&127 < 6}
	k := r >> 32
	if (r>>7)&1023 < 819 {
		op.key = uint32(k % kvHotKeys)
	} else {
		op.key = uint32(kvHotKeys + k%(kvKeys-kvHotKeys))
	}
	return op
}

// kvAddr scatters keys over the footprint (an odd multiplier is a
// bijection modulo a power of two), so the hot set spans every page.
func kvAddr(key uint32) uint64 {
	return uint64((key*0x9e3779b1)&(kvKeys-1)) * nvmstar.LineSize
}

// kvValue fills line with the value of (key, version): eight words
// derived from both, so a stale, misplaced or corrupted line shows.
func kvValue(line []byte, key, version uint32) {
	g := kvGen{x: uint64(key)<<32 | uint64(version)}
	for i := 0; i < nvmstar.LineSize; i += 8 {
		binary.LittleEndian.PutUint64(line[i:], g.u64())
	}
}

// kvStore is the benchmark's client: the generator, the system under
// test and the expected version of every key.
type kvStore struct {
	sys      *nvmstar.System
	gen      *kvGen
	versions []uint32
	line     []byte // scratch value
	want     []byte // scratch expected value
	op       int    // operations issued, for core rotation
	api      *apiTimer
}

// newKVStore builds the system, loads every key and warms the caches.
func newKVStore(seed uint64, api *apiTimer) (*kvStore, error) {
	sys, err := nvmstar.New(nvmstar.Options{Scheme: "star", Seed: seed})
	if err != nil {
		return nil, err
	}
	kv := &kvStore{
		sys:      sys,
		gen:      newKVGen(seed),
		versions: make([]uint32, kvKeys),
		line:     make([]byte, nvmstar.LineSize),
		want:     make([]byte, nvmstar.LineSize),
		api:      api,
	}
	for k := uint32(0); k < kvKeys; k++ {
		kv.sys.OnCore(int(k % kvCores))
		kvValue(kv.line, k, 0)
		kv.sys.Store(kvAddr(k), kv.line)
	}
	if err := kv.sys.Flush(); err != nil {
		return nil, err
	}
	if err := kv.steps(kvWarmOps, nil); err != nil {
		return nil, err
	}
	return kv, kv.sys.Err()
}

// steps issues n operations; a Load returning the wrong value is
// counted on b (nil during warm-up, where it is an error).
func (kv *kvStore) steps(n int, b *bench) error {
	for i := 0; i < n; i++ {
		op := kv.gen.next()
		kv.sys.OnCore(kv.op % kvCores)
		kv.op++
		addr := kvAddr(op.key)
		if op.store {
			kv.versions[op.key]++
			kvValue(kv.line, op.key, kv.versions[op.key])
			kv.api.store(kv.sys, addr, kv.line)
			continue
		}
		got := kv.api.load(kv.sys, addr)
		kvValue(kv.want, op.key, kv.versions[op.key])
		if !bytes.Equal(got, kv.want) {
			if b == nil {
				return fmt.Errorf("key %d: load returned a wrong value", op.key)
			}
			b.fail("kv-read: key %d: load returned a wrong value", op.key)
		}
	}
	if b != nil {
		b.attempted += int64(n)
	}
	if err := kv.sys.Err(); err != nil {
		return fmt.Errorf("system error: %w", err)
	}
	return nil
}

// verifyAll loads every key once and checks its latest version.
func (kv *kvStore) verifyAll(b *bench) {
	for k := uint32(0); k < kvKeys; k++ {
		got := kv.sys.Load(kvAddr(k), nvmstar.LineSize)
		kvValue(kv.want, k, kv.versions[k])
		if !bytes.Equal(got, kv.want) {
			b.fail("kv-read: verify: key %d holds a wrong value", k)
		}
	}
	b.attempted++
	if err := kv.sys.Err(); err != nil {
		b.fail("kv-read: verify: system error: %v", err)
	}
}

func runKVRead(b *bench) error {
	api := &apiTimer{}
	var kv *kvStore
	err := b.setupRepeated(setupReps, func() { kv = nil }, func() error {
		var err error
		kv, err = newKVStore(b.seed, api)
		return err
	})
	if err != nil {
		return err
	}
	w := stepped{
		m:      kv.sys.Machine(),
		name:   "kv-read",
		rate:   kvRate,
		batch:  kvBatchOps,
		step:   func(n int) error { return kv.steps(n, b) },
		traced: func(on bool) { api.on = on },
		spans: func(t *batches) {
			ops := float64(t.ops)
			b.layer["api.load_calls_per_op"] = float64(api.loads) / ops
			b.layer["api.persist_calls_per_op"] = float64(api.persists) / ops
			b.layer["sim.mem_calls_per_op"] = float64(api.calls()) / ops
			b.layer["sim.mem_busy_frac"] = api.busy.Seconds() / t.raw
		},
		check: func() { kv.verifyAll(b) },
	}
	return b.measureStepped(w)
}
