package secmem_test

import (
	"strings"
	"testing"

	"nvmstar/internal/cache"
	"nvmstar/internal/memline"
	"nvmstar/internal/secmem"
	"nvmstar/internal/simcrypto"
	"nvmstar/internal/sit"
)

func TestRecoveryReportArithmetic(t *testing.T) {
	rep := &secmem.RecoveryReport{IndexReads: 10, NodeReads: 100, NodeWrites: 5}
	if rep.LineAccesses() != 115 {
		t.Fatalf("LineAccesses = %d", rep.LineAccesses())
	}
	if rep.TimeNs() != 115*secmem.RecoveryLineNs {
		t.Fatalf("TimeNs = %v", rep.TimeNs())
	}
	if rep.TimeSeconds() != rep.TimeNs()/1e9 {
		t.Fatalf("TimeSeconds = %v", rep.TimeSeconds())
	}
}

func TestIntegrityErrorMessages(t *testing.T) {
	e := newEngine(t, "star", 1<<19, 16<<10)
	if err := e.WriteLine(0, memline.Line{1}); err != nil {
		t.Fatal(err)
	}
	// Tamper directly so ReadLine yields an IntegrityError.
	line, _ := e.Device().Peek(0)
	line[5] ^= 1
	e.Device().Poke(0, line)
	_, err := e.ReadLine(0)
	if err == nil {
		t.Fatal("tampered read succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "integrity violation") || !strings.Contains(msg, "user data line") {
		t.Fatalf("unhelpful error: %q", msg)
	}
}

func TestViolationString(t *testing.T) {
	e := newEngine(t, "star", 1<<19, 16<<10)
	runWorkload(t, e, 800, 3131)
	// Corrupt an uncached node to get a violation with a description.
	geo := e.Geometry()
	for idx := uint64(0); idx < geo.LevelSize(0); idx++ {
		addr := geo.NodeAddr(sit.NodeID{Level: 0, Index: idx})
		if _, cached := e.MetaCache().Peek(addr); cached {
			continue
		}
		line, present := e.Device().Peek(addr)
		if !present {
			continue
		}
		line[0] ^= 0xff
		e.Device().Poke(addr, line)
		violations := e.AuditTree()
		if len(violations) == 0 {
			t.Fatal("no violation after corruption")
		}
		s := violations[0].String()
		if !strings.Contains(s, "stored MAC") {
			t.Fatalf("violation string: %q", s)
		}
		return
	}
	t.Skip("no uncached node available")
}

func TestAuditDataOnCleanEngine(t *testing.T) {
	e := newEngine(t, "star", 1<<19, 16<<10)
	runWorkload(t, e, 500, 3232)
	if bad := e.AuditData(); len(bad) != 0 {
		t.Fatalf("clean engine reported bad data: %v", bad)
	}
	mac, ok := e.PeekDataMAC(0)
	if _, present := e.Device().Peek(0); present != ok {
		t.Fatal("PeekDataMAC presence disagrees with device")
	}
	if ok {
		e.PokeDataMAC(0, mac^1)
		if bad := e.AuditData(); len(bad) != 1 || bad[0] != 0 {
			t.Fatalf("audit after MAC poke = %v", bad)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	e, err := secmem.New(secmem.Config{
		DataBytes: 1 << 19,
		Suite:     simcrypto.NewFast(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := secmem.DefaultMetaCache()
	if e.MetaCache().Lines() != want.SizeBytes/memline.Size {
		t.Fatalf("default cache lines = %d", e.MetaCache().Lines())
	}
	if _, err := secmem.New(secmem.Config{DataBytes: 1 << 19}); err == nil {
		t.Fatal("nil suite accepted")
	}
	if _, err := secmem.New(secmem.Config{DataBytes: 1 << 19, Suite: simcrypto.NewFast(1),
		MetaCache: cache.Config{SizeBytes: 100, Ways: 3}}); err == nil {
		t.Fatal("invalid cache config accepted")
	}
	if _, err := secmem.New(secmem.Config{DataBytes: 1 << 19, Suite: simcrypto.NewFast(1),
		Shards: -1}); err == nil {
		t.Fatal("negative recovery worker count accepted")
	}
}

func TestStatsSub(t *testing.T) {
	a := secmem.Stats{UserWrites: 10, MetaNVMWrites: 7, MACComputes: 100}
	b := secmem.Stats{UserWrites: 4, MetaNVMWrites: 2, MACComputes: 40}
	d := a.Sub(b)
	if d.UserWrites != 6 || d.MetaNVMWrites != 5 || d.MACComputes != 60 {
		t.Fatalf("Sub = %+v", d)
	}
}
