package virt

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

func TestGuestTableExhaustion(t *testing.T) {
	r := newRig(t, vNone)
	// The rig allows 256 guest PT pages; mapping VAs spread across many L2
	// entries eventually exhausts the guest-physical PT budget with a
	// clean error.
	var err error
	for i := 0; i < 1024; i++ {
		gva := addr.VA(uint64(i) * addr.GiB / 2)
		if !addr.Sv39.Canonical(gva) {
			break
		}
		err = r.hyp.Guest.Map(gva, addr.PA(0x9000_0000+uint64(i)*addr.PageSize), perm.R, true)
		if err != nil {
			break
		}
	}
	if err == nil {
		t.Skip("budget not exhausted within the canonical space")
	}
}

func TestGuestWritePath(t *testing.T) {
	r := newRig(t, vPMPT)
	res, err := r.hyp.AccessGuest(r.gva, perm.Write, 0)
	if err != nil || res.PageFault || res.AccessFault {
		t.Fatalf("guest write: %+v %v", res, err)
	}
	// Write through the warm GTLB (inlined physical permission).
	res, err = r.hyp.AccessGuest(r.gva, perm.Write, 1000)
	if err != nil || !gtlbHit(res) {
		t.Fatalf("warm guest write: %+v %v", res, err)
	}
}

func TestDisableWalkCachesIdempotent(t *testing.T) {
	r := newRig(t, vPMPT)
	r.hyp.DisableWalkCaches()
	r.hyp.DisableWalkCaches()
	// Fences on a cache-less hypervisor must not panic.
	r.hyp.HFenceVVMA()
	r.hyp.HFenceGVMA()
	res, err := r.hyp.AccessGuest(r.gva, perm.Read, 0)
	if err != nil || res.PageFault {
		t.Fatalf("%+v %v", res, err)
	}
	if res.TotalRefs() != 48 {
		t.Errorf("cache-less PMPT 3-D walk = %d refs, want 48", res.TotalRefs())
	}
}

func TestNPTWalkPath(t *testing.T) {
	r := newRig(t, vNone)
	path, err := r.hyp.NPT.WalkPath(0x8000_0000)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Errorf("nested walk path = %d steps, want 3", len(path))
	}
	// An unmapped GPA truncates at the first invalid level.
	path, _ = r.hyp.NPT.WalkPath(600 * addr.GiB)
	if len(path) != 1 {
		t.Errorf("unmapped GPA path = %d steps, want 1", len(path))
	}
}

func TestNPTRemapOverwrites(t *testing.T) {
	// Leaf remap follows pt.Map semantics: the newest mapping wins (the
	// hypervisor moves guest pages during ballooning/migration).
	r := newRig(t, vNone)
	if err := r.hyp.NPT.Map(0x8000_0000, 0x900_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	tr, err := r.hyp.NPT.TranslateSW(0x8000_0000)
	if err != nil || tr.PA != 0x900_0000 {
		t.Errorf("after remap, GPA → %v, %v", tr.PA, err)
	}
}
