package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile taken by the benchmark is decoded here (the pprof
// format is gzip-compressed protobuf; only the fields needed for
// stacks are read) and reduced to per-module self-time and per-phase
// shares.

// profStack is one sampled call stack, innermost frame first, with
// inlined frames expanded.
type profStack struct {
	frames []string
	count  int64
}

// profModules are the simulator modules whose self time is reported,
// as <module>.self_frac. A sample counts toward the module of its
// innermost nvmstar/internal/* frame.
var profModules = []string{
	"cache", "counter", "simcrypto", "secmem", "schemes", "cachetree", "bitmap",
	"nvm", "paged", "sim", "heap", "workload", "experiments",
}

// gcFrames mark the runtime's background GC work: a sample under one
// counts toward runtime.gc_frac instead of a module.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// phaseFrames map the frames that mark a phase, in the simulator and
// in the benchmark's own code, to the phase. A sample counts toward
// the phase of its outermost marked frame, so a warm-up step inside a
// set-up counts as set-up.
var phaseFrames = map[string]string{
	"main.(*bench).setupRepeated":                  "setup",
	"nvmstar/internal/sim.(*Machine).NewSessionOn": "setup",
	"nvmstar/internal/sim.(*Session).StepN":        "measure",
	"main.(*kvStore).steps":                        "measure",
	"nvmstar/internal/sim.(*Session).Verify":       "verify",
	"main.verifyPhase":                             "verify",
	"nvmstar/internal/sim.(*Machine).Fork":         "fork",
	"nvmstar/internal/sim.(*Machine).Recover":      "recover",
}

var phases = []string{"setup", "measure", "verify", "fork", "recover"}

const internalPrefix = "nvmstar/internal/"

// moduleOf returns the nvmstar/internal module a function belongs to,
// or "" for a function outside them.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		return rest[:i]
	}
	return rest
}

// bucketProfile reduces stacks to the per-layer profile metrics: each
// module's self-time share, the GC share, each phase's share and the
// sample count.
func bucketProfile(stacks []profStack) map[string]float64 {
	var total int64
	byModule := map[string]int64{}
	byPhase := map[string]int64{}
	var gc int64
	for _, s := range stacks {
		total += s.count
		for i := len(s.frames) - 1; i >= 0; i-- {
			if p, ok := phaseFrames[s.frames[i]]; ok {
				byPhase[p] += s.count
				break
			}
		}
		isGC := false
		for _, f := range s.frames {
			if gcFrames[f] {
				isGC = true
				break
			}
		}
		if isGC {
			gc += s.count
			continue
		}
		for _, f := range s.frames {
			if m := moduleOf(f); m != "" {
				byModule[m] += s.count
				break
			}
		}
	}
	out := map[string]float64{"profile.samples": float64(total)}
	frac := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	for _, m := range profModules {
		out[m+".self_frac"] = frac(byModule[m])
	}
	for _, p := range phases {
		out["phase."+p+"_frac"] = frac(byPhase[p])
	}
	out["runtime.gc_frac"] = frac(gc)
	return out
}

var errProto = errors.New("malformed profile")

// pbFields calls fn for each field of one protobuf message. For
// length-delimited fields sub holds the payload; otherwise v holds the
// value.
func pbFields(b []byte, fn func(field int, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated varint field's values, packed or not.
func pbUints(dst []uint64, wire int, v uint64, sub []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return nil, errProto
		}
		dst, sub = append(dst, x), sub[n:]
	}
	return dst, nil
}

// decodeProfile decodes a gzip-compressed pprof CPU profile into its
// stacks, weighted by sample count.
func decodeProfile(data []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, values []uint64 }
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
	)
	err = pbFields(raw, func(field, wire int, _ uint64, sub []byte) error {
		if wire != 2 {
			return nil
		}
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(sub, func(f, w int, v uint64, sub []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = pbUints(s.locs, w, v, sub)
				case 2:
					s.values, err = pbUints(s.values, w, v, sub)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(sub, func(f, w int, v uint64, sub []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					return pbFields(sub, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(sub, func(f, w int, v uint64, _ []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 2 && w == 0:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProto
		}
		st := profStack{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: string index %d out of range", errProto, idx)
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}
