package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestShardWidthBitIdentity is the machine-level half of the
// recovery-worker contract: a full simulated run — timing model,
// telemetry-free stats, crash, recovery, snapshot — must be
// bit-identical at every worker count. The golden corpus pins Shards=1 (the zero value) to history;
// this pins 2, 4 and 8 to Shards=1.
func TestShardWidthBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full cells at four shard widths")
	}
	const ops = 1200
	for _, scheme := range []string{"star", "anubis"} {
		t.Run(scheme, func(t *testing.T) {
			type outcome struct {
				results  *Results
				rep      string
				snapshot []byte
			}
			var base *outcome
			for _, shards := range []int{1, 2, 4, 8} {
				cfg := goldenConfig(scheme)
				cfg.Shards = shards
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				res, err := m.Run("hash", ops)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				m.Crash()
				rep, err := m.Recover()
				if err != nil || !rep.Verified {
					t.Fatalf("shards=%d recovery: %v (%+v)", shards, err, rep)
				}
				m.Crash()
				var snap bytes.Buffer
				if err := m.Engine().SaveNonVolatile(&snap); err != nil {
					t.Fatalf("shards=%d snapshot: %v", shards, err)
				}
				got := &outcome{
					results:  res,
					rep:      fmt.Sprintf("%+v", *rep),
					snapshot: snap.Bytes(),
				}
				if base == nil {
					base = got
					continue
				}
				if !reflect.DeepEqual(got.results, base.results) {
					t.Errorf("shards=%d Results diverge from shards=1:\n  got  %+v\n  want %+v",
						shards, got.results, base.results)
				}
				if got.rep != base.rep {
					t.Errorf("shards=%d recovery report diverges:\n  got  %s\n  want %s",
						shards, got.rep, base.rep)
				}
				if !bytes.Equal(got.snapshot, base.snapshot) {
					t.Errorf("shards=%d post-recovery snapshot bytes diverge from shards=1", shards)
				}
			}
		})
	}
}
