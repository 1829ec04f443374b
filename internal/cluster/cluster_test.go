package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/ib"
	"repro/internal/iwarp"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/verbs"
)

func TestKindStrings(t *testing.T) {
	want := []struct {
		k Kind
		s string
	}{{IWARP, "iWARP"}, {IB, "IB"}, {MXoM, "MXoM"}, {MXoE, "MXoE"}}
	for _, c := range want {
		if c.k.String() != c.s {
			t.Errorf("%d.String() = %q, want %q", int(c.k), c.k.String(), c.s)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Error("bad kind did not stringify as unknown")
	}
	if IWARP.IsMX() || IB.IsMX() || !MXoM.IsMX() || !MXoE.IsMX() {
		t.Error("IsMX wrong")
	}
}

func TestFabricConfigsDiffer(t *testing.T) {
	eth := FabricConfig(IWARP)
	ibc := FabricConfig(IB)
	myri := FabricConfig(MXoM)
	if FabricConfig(MXoE).Name != eth.Name {
		t.Error("MXoE must share the Ethernet switch")
	}
	if ibc.LinkRate >= eth.LinkRate {
		t.Error("IB 4X data rate must be below the 10GigE line rate")
	}
	if myri.SwitchLatency >= eth.SwitchLatency {
		t.Error("Myrinet switch should be faster than the Ethernet switch")
	}
	if eth.FrameOverhead <= myri.FrameOverhead {
		t.Error("Ethernet framing overhead should exceed Myrinet's")
	}
}

func TestTestbedConstruction(t *testing.T) {
	for _, kind := range Kinds {
		tb := New(kind, 4)
		if len(tb.Hosts) != 4 {
			t.Fatalf("%v: %d hosts", kind, len(tb.Hosts))
		}
		for _, h := range tb.Hosts {
			switch kind {
			case IWARP:
				if h.RNIC == nil || h.HCA != nil || h.MX != nil {
					t.Errorf("%v host has wrong NICs", kind)
				}
				if h.NIC() == nil {
					t.Error("NIC() nil for verbs host")
				}
			case IB:
				if h.HCA == nil || h.RNIC != nil || h.MX != nil {
					t.Errorf("%v host has wrong NICs", kind)
				}
			default:
				if h.MX == nil || h.RNIC != nil || h.HCA != nil {
					t.Errorf("%v host has wrong NICs", kind)
				}
				if h.NIC() != nil {
					t.Error("NIC() non-nil for MX host")
				}
			}
			if h.PollDetect() <= 0 {
				t.Errorf("%v poll detect = %v", kind, h.PollDetect())
			}
		}
		tb.Close()
	}
}

func TestConnectQPEndToEnd(t *testing.T) {
	for _, kind := range VerbsKinds {
		tb := New(kind, 2)
		qa, qb := tb.ConnectQP(0, 1)
		src := tb.Hosts[0].Mem.Alloc(4096)
		dst := tb.Hosts[1].Mem.Alloc(4096)
		src.Fill(9)
		rs := tb.Hosts[0].NIC().Reg().RegisterFree(src, 0, 4096)
		rd := tb.Hosts[1].NIC().Reg().RegisterFree(dst, 0, 4096)
		tb.Eng.Go("x", func(p *sim.Proc) {
			qa.PostSend(p, verbs.WR{ID: 1, Op: verbs.OpWrite, Local: rs, Len: 4096, RemoteKey: rd.Key})
			got := 0
			for got < 4096 {
				pl := qb.Placements().Get(p)
				got += pl.Len
			}
		})
		if err := tb.Run(); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(9, 0, 4096) {
			t.Errorf("%v: data corrupt", kind)
		}
		tb.Close()
	}
}

// Clause windows count from world build, so a scenario applied after the
// clock has moved would land partly or wholly in the past.
func TestApplyFaultsRejectsMovedClock(t *testing.T) {
	sc := faults.New(1).Add(faults.Flap(0, 0, sim.Millisecond))
	tb := New(IWARP, 2)
	defer tb.Close()
	if _, err := tb.ApplyFaults(sc); err != nil {
		t.Fatalf("at t = 0: %v", err)
	}
	tb.Eng.Go("idle", func(p *sim.Proc) { p.Sleep(sim.Microsecond) })
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ApplyFaults(sc); err == nil {
		t.Errorf("faults applied at %v, want an error", tb.Eng.Now())
	}
}

func TestConnectQPOnMXPanics(t *testing.T) {
	tb := New(MXoM, 2)
	defer tb.Close()
	defer func() {
		if recover() == nil {
			t.Error("ConnectQP on MX testbed did not panic")
		}
	}()
	tb.ConnectQP(0, 1)
}

type plainNIC struct{}

func (plainNIC) Deliver(*fabric.Frame) {}

// Build attaches every caller NIC before OnNew sees the world (faults.Attach
// sizes its per-port state from the ports that exist), and a host with no
// RDMA NIC has no queue pairs and no stallable engine.
func TestBuildAttachesBeforeOnNew(t *testing.T) {
	prev := OnNew
	defer func() { OnNew = prev }()
	ports := -1
	OnNew = func(tb *Testbed) { ports = tb.Fabric.Ports() }
	tb := Build(IWARP, 2, Options{}, func(tb *Testbed, i int) {
		if p := tb.Fabric.Attach(plainNIC{}); int(p.ID()) != i {
			t.Errorf("host %d got port %d", i, p.ID())
		}
	})
	defer tb.Close()
	if ports != 2 {
		t.Errorf("OnNew saw %d ports, want 2", ports)
	}
	if h := tb.Hosts[0]; h.NIC() != nil || h.MX != nil || h.Mem == nil {
		t.Errorf("host %s: NIC %v, MX %v, Mem %v", h.Name, h.NIC(), h.MX, h.Mem)
	}
	stall := faults.New(1).Add(faults.NICStall(0, 10*sim.Microsecond, sim.Microsecond).Between(0, sim.Millisecond))
	if _, err := tb.ApplyFaults(stall); err == nil {
		t.Error("nic-stall applied to a host without a stallable engine")
	}
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "no RDMA NIC") {
				t.Errorf("ConnectQP without RDMA NICs: panic %q", msg)
			}
		}()
		tb.ConnectQP(0, 1)
	}()
}

func TestOptionsOverride(t *testing.T) {
	iw := iwarp.DefaultConfig()
	iw.PipelineWidth = 1
	tb := NewWithOptions(IWARP, 2, Options{IWARP: &iw})
	if tb.Hosts[0].RNIC.Config().PipelineWidth != 1 {
		t.Error("iWARP override not applied")
	}
	tb.Close()

	ibCfg := ib.DefaultConfig()
	ibCfg.CtxCacheSize = 2
	tb = NewWithOptions(IB, 2, Options{IB: &ibCfg})
	if tb.Hosts[0].HCA.Config().CtxCacheSize != 2 {
		t.Error("IB override not applied")
	}
	tb.Close()

	mxCfg := mx.DefaultConfig()
	mxCfg.EagerMax = 1024
	tb = NewWithOptions(MXoM, 2, Options{MX: &mxCfg})
	tb.Close()
}

func TestMXoEHeavierFraming(t *testing.T) {
	m := MXConfig(MXoM)
	e := MXConfig(MXoE)
	if e.PacketHeader <= m.PacketHeader {
		t.Error("MXoE per-packet header should exceed MXoM's")
	}
}
