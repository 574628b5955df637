// Package integration holds cross-module scenario tests: full-stack
// security properties (the reason the isolation hardware exists), exercised
// through the same pipeline the benchmarks use.
package integration

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

const memSize = 512 * addr.MiB

func bootStack(t *testing.T, mode monitor.Mode) (*cpu.Machine, *monitor.Monitor, *kernel.Kernel) {
	t.Helper()
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(mach, mon, kernel.DefaultConfig(memSize))
	if err != nil {
		t.Fatal(err)
	}
	return mach, mon, k
}

// mmuAccess adapts the out-param MMU.Access to the value-returning shape the
// tests were written against.
func mmuAccess(m *mmu.MMU, va addr.VA, k perm.Access, priv perm.Priv, now uint64) (mmu.Result, error) {
	var res mmu.Result
	err := m.Access(va, k, priv, now, &res)
	return res, err
}

// TestHostCannotMapEnclaveMemory: a malicious host kernel maps an enclave's
// physical page into a host process and tries to read it. The page table
// says yes; HPMP must say no — at the MMU level, after a successful
// translation.
func TestHostCannotMapEnclaveMemory(t *testing.T) {
	for _, mode := range []monitor.Mode{monitor.ModePMPT, monitor.ModeHPMP} {
		mach, mon, k := bootStack(t, mode)
		enc, _, err := mon.CreateEnclave()
		if err != nil {
			t.Fatal(err)
		}
		secret := addr.Range{Base: 0x1000_0000, Size: 64 * addr.KiB}
		if _, _, err := mon.AddRegion(enc, secret, perm.RWX, monitor.LabelSlow); err != nil {
			t.Fatal(err)
		}
		mach.Mem.Write64(secret.Base, 0x5ec7e7)

		// The (malicious) host kernel forges a mapping straight at the
		// enclave's frame.
		p, err := k.Spawn(kernel.Image{Name: "attacker", TextPages: 4, DataPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SwitchTo(p.PID); err != nil {
			t.Fatal(err)
		}
		evil := addr.VA(0x7000_0000)
		p.AddVMAAt(evil, 16, perm.RW)
		if err := p.Table.Map(evil, secret.Base, perm.RW, true); err != nil {
			t.Fatal(err)
		}
		res, err := mmuAccess(mach.MMU, evil, perm.Read, perm.U, mach.Core.Now)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AccessFault {
			t.Errorf("%v: forged mapping must access-fault, got %+v", mode, res)
		}
		if res.DataRefs != 0 {
			t.Errorf("%v: the secret must never be fetched", mode)
		}
	}
}

// TestEnclaveCannotReachMonitor: the monitor's own memory is locked even
// against the running enclave and even against forged mappings.
func TestEnclaveCannotReachMonitor(t *testing.T) {
	mach, mon, k := bootStack(t, monitor.ModeHPMP)
	enc, _, _ := mon.CreateEnclave()
	region := addr.Range{Base: 0x1000_0000, Size: addr.MiB}
	mon.AddRegion(enc, region, perm.RWX, monitor.LabelSlow)
	mon.Switch(enc)

	p, err := k.Spawn(kernel.Image{Name: "probe", TextPages: 4, DataPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	k.SwitchTo(p.PID)
	evil := addr.VA(0x7100_0000)
	p.AddVMAAt(evil, 1, perm.RW)
	if err := p.Table.Map(evil, 0x10_0000 /* inside the monitor region */, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	res, err := mmuAccess(mach.MMU, evil, perm.Read, perm.U, mach.Core.Now)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AccessFault {
		t.Errorf("monitor memory must be untouchable: %+v", res)
	}
}

// TestWXSeparationViaTable: a domain granted rw- memory cannot execute it
// even when its own page tables say X. (The monitor demotes part of the
// host's own view to rw- — the data-only posture for buffers.)
func TestWXSeparationViaTable(t *testing.T) {
	mach, mon, k := bootStack(t, monitor.ModeHPMP)
	data := addr.Range{Base: 0x1000_0000, Size: 64 * addr.KiB}
	if _, _, err := mon.AddRegion(monitor.HostDomain, data, perm.RW, monitor.LabelSlow); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Spawn(kernel.Image{Name: "wx", TextPages: 4, DataPages: 4})
	k.SwitchTo(p.PID)
	va := addr.VA(0x7200_0000)
	p.AddVMAAt(va, 1, perm.RWX)
	if err := p.Table.Map(va, data.Base, perm.RWX, true); err != nil {
		t.Fatal(err)
	}
	// Reads pass…
	res, _ := mmuAccess(mach.MMU, va, perm.Read, perm.U, mach.Core.Now)
	if res.Faulted() {
		t.Fatalf("read through rw- grant should pass: %+v", res)
	}
	// …fetch is blocked by the physical permission.
	res, _ = mmuAccess(mach.MMU, va, perm.Fetch, perm.U, mach.Core.Now)
	if !res.AccessFault {
		t.Errorf("execute from rw- physical grant must fault: %+v", res)
	}
}

// TestInlinedPermRevokedByFlush: after the monitor revokes a region, the
// mandatory TLB flush ensures no stale inlined permission survives.
func TestInlinedPermRevokedByFlush(t *testing.T) {
	mach, mon, k := bootStack(t, monitor.ModeHPMP)
	p, _ := k.Spawn(kernel.Image{Name: "app", TextPages: 4, DataPages: 4})
	e, _ := k.NewEnv(p)
	va := e.P.Heap()
	e.Store64(va, 42)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	pa, err := mach.MMU.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	// Warm TLB carries the inlined permission.
	if _, err := e.Load64(va), e.Err(); err != nil {
		t.Fatal(err)
	}
	// The monitor hands that very frame to a fresh enclave (revoking the
	// host). AddRegion performs the mandatory flush internally.
	enc, _, _ := mon.CreateEnclave()
	frame := addr.Range{Base: pa.PageBase(), Size: addr.PageSize}
	if _, _, err := mon.AddRegion(enc, frame, perm.RWX, monitor.LabelSlow); err != nil {
		t.Fatal(err)
	}
	res, err := mmuAccess(mach.MMU, va, perm.Read, perm.U, mach.Core.Now)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AccessFault {
		t.Errorf("revoked frame must fault after the flush: %+v", res)
	}
}

// TestMeasurementDetectsPreLaunchTampering: the attestation flow catches a
// host that modifies enclave memory before launch.
func TestMeasurementDetectsPreLaunchTampering(t *testing.T) {
	_, mon, _ := bootStack(t, monitor.ModeHPMP)
	build := func(tamper bool) [32]byte {
		enc, _, _ := mon.CreateEnclave()
		region := addr.Range{Base: addr.PA(0x1000_0000 + int(enc)*0x10_0000), Size: 64 * addr.KiB}
		mon.AddRegion(enc, region, perm.RWX, monitor.LabelSlow)
		mon.Mach.Mem.Write64(region.Base, 0x60061e)
		if tamper {
			mon.Mach.Mem.Write64(region.Base+8, 0xbad)
		}
		m, err := mon.Measure(enc)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	clean := build(false)
	dirty := build(true)
	if clean == dirty {
		t.Error("tampered image must measure differently")
	}
}
