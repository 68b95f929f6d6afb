package sim_test

import (
	"testing"

	"nvmstar/internal/memline"
	"nvmstar/internal/sim"
)

// BenchmarkMachineLoad replays a read-mostly key-value stream through
// the default STAR machine: 95% of operations Load one 64-byte key, 5%
// Store and Persist it; 80% go to a hot fifth of the keys; operations
// rotate over the 8 cores. The 8 MiB footprint is twice the L3, so
// the stream exercises every cache level, cross-core migration and the
// read-verify path.
func BenchmarkMachineLoad(b *testing.B) {
	const (
		keys    = 1 << 17 // 8 MiB of lines
		hotKeys = keys / 5
		warmOps = 100_000
	)
	m, err := sim.NewMachine(sim.Default())
	if err != nil {
		b.Fatal(err)
	}
	cores := m.Config().Cores
	addr := func(key uint64) uint64 { return ((key * 0x9e3779b1) & (keys - 1)) * memline.Size } // scatter keys
	line := make([]byte, memline.Size)
	for k := uint64(0); k < keys; k++ {
		m.SetCore(int(k) % cores)
		line[0] = byte(k)
		m.Store(addr(k), line)
	}
	if err := m.FlushCPUCaches(); err != nil {
		b.Fatal(err)
	}
	x := uint64(1)
	step := func(i int) {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		key := hotKeys + (z>>16)%(keys-hotKeys)
		if z%10 < 8 {
			key = (z >> 16) % hotKeys
		}
		m.SetCore(i % cores)
		if a := addr(key); z/10%20 == 0 {
			m.Store(a, line)
			m.Persist(a, memline.Size)
		} else {
			m.Load(a, line)
		}
	}
	for i := 0; i < warmOps; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	if err := m.Err(); err != nil {
		b.Fatal(err)
	}
}
