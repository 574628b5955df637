package miniredis

import (
	"fmt"
	"testing"
	"testing/quick"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
)

func newServer(t *testing.T, mode monitor.Mode) (*Server, *kernel.Env) {
	t.Helper()
	mach := cpu.NewMachine(cpu.RocketPlatform(), 512*addr.MiB, true)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(mach, mon, kernel.DefaultConfig(512*addr.MiB))
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(kernel.Image{Name: "redis-server", TextPages: 64, DataPages: 64, HeapPages: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	e, err := k.NewEnv(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(e, 32*addr.MiB, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

func TestSetGet(t *testing.T) {
	s, _ := newServer(t, monitor.ModeHPMP)
	if err := s.Set("foo", []byte("bar")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("foo")
	if err != nil || string(v) != "bar" {
		t.Errorf("Get = %q, %v", v, err)
	}
	if v, _ := s.Get("missing"); v != nil {
		t.Error("missing key must return nil")
	}
	// Overwrite.
	s.Set("foo", []byte("baz"))
	v, _ = s.Get("foo")
	if string(v) != "baz" {
		t.Errorf("overwrite failed: %q", v)
	}
	if n := s.countEntries(); n != 1 {
		t.Errorf("dictionary holds %d entries, want 1", n)
	}
}

// countEntries walks every bucket chain and counts the dictionary's
// entries.
func (s *Server) countEntries() int {
	n := 0
	for b := uint64(0); b < s.nBuckets; b++ {
		for va := addr.VA(s.e.Load64(s.buckets + addr.VA(b*8))); va != 0; va = addr.VA(s.word(va, entNext)) {
			n++
		}
	}
	return n
}

func TestIncr(t *testing.T) {
	s, _ := newServer(t, monitor.ModeHPMP)
	for want := int64(1); want <= 3; want++ {
		got, err := s.Incr("counter")
		if err != nil || got != want {
			t.Fatalf("Incr = %d, %v; want %d", got, err, want)
		}
	}
	v, _ := s.Get("counter")
	if string(v) != "3" {
		t.Errorf("stored counter = %q", v)
	}
	s.Set("str", []byte("abc"))
	if _, err := s.Incr("str"); err == nil {
		t.Error("Incr of non-numeric must fail")
	}
}

func TestTypeConflicts(t *testing.T) {
	s, _ := newServer(t, monitor.ModeHPMP)
	s.Set("k", []byte("v"))
	if _, err := s.LPush("k", []byte("x")); err == nil {
		t.Error("LPUSH on a string key must fail with WRONGTYPE")
	}
	if _, err := s.SAdd("k", "m"); err == nil {
		t.Error("SADD on a string key must fail")
	}
}

func TestListOps(t *testing.T) {
	s, _ := newServer(t, monitor.ModeHPMP)
	for i := 0; i < 5; i++ {
		n, err := s.RPush("l", []byte{byte('a' + i)})
		if err != nil || n != uint64(i+1) {
			t.Fatalf("RPush: %d %v", n, err)
		}
	}
	s.LPush("l", []byte("z"))
	// l = z a b c d e
	if n, _ := s.LLen("l"); n != 6 {
		t.Errorf("LLen = %d", n)
	}
	v, _ := s.LPop("l")
	if string(v) != "z" {
		t.Errorf("LPop = %q", v)
	}
	v, _ = s.RPop("l")
	if string(v) != "e" {
		t.Errorf("RPop = %q", v)
	}
	out, err := s.LRange("l", 0, 2)
	if err != nil || len(out) != 3 {
		t.Fatalf("LRange: %d %v", len(out), err)
	}
	if string(out[0]) != "a" || string(out[2]) != "c" {
		t.Errorf("LRange contents: %q %q", out[0], out[2])
	}
	// Drain to empty.
	for i := 0; i < 4; i++ {
		s.LPop("l")
	}
	if v, _ := s.LPop("l"); v != nil {
		t.Error("pop from empty list must return nil")
	}
}

func TestSetOps(t *testing.T) {
	s, _ := newServer(t, monitor.ModeHPMP)
	added, err := s.SAdd("s", "alpha")
	if err != nil || !added {
		t.Fatalf("SAdd: %v %v", added, err)
	}
	added, _ = s.SAdd("s", "alpha")
	if added {
		t.Error("duplicate SAdd must report false")
	}
	s.SAdd("s", "beta")
	if n, _ := s.SCard("s"); n != 2 {
		t.Errorf("SCard = %d", n)
	}
	m, err := s.SPop("s")
	if err != nil || (m != "alpha" && m != "beta") {
		t.Errorf("SPop = %q, %v", m, err)
	}
	if n, _ := s.SCard("s"); n != 1 {
		t.Errorf("SCard after pop = %d", n)
	}
}

func TestHashOps(t *testing.T) {
	s, _ := newServer(t, monitor.ModeHPMP)
	isNew, err := s.HSet("h", "f1", []byte("v1"))
	if err != nil || !isNew {
		t.Fatalf("HSet: %v %v", isNew, err)
	}
	isNew, _ = s.HSet("h", "f1", []byte("v2"))
	if isNew {
		t.Error("overwriting HSet must report false")
	}
	v, _ := s.HGet("h", "f1")
	if string(v) != "v2" {
		t.Errorf("HGet = %q", v)
	}
	if v, _ := s.HGet("h", "nope"); v != nil {
		t.Error("missing field must return nil")
	}
}

// Property: Set/Get round-trips arbitrary keys and short values, including
// colliding bucket chains.
func TestSetGetQuick(t *testing.T) {
	s, _ := newServer(t, monitor.ModeHPMP)
	n := 0
	f := func(kRaw uint16, vRaw uint32) bool {
		if n > 150 {
			return true // bound arena usage
		}
		n++
		key := fmt.Sprintf("k%d", kRaw%512)
		val := []byte(fmt.Sprintf("%d", vRaw))
		if err := s.Set(key, val); err != nil {
			return false
		}
		got, err := s.Get(key)
		return err == nil && string(got) == string(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBenchmarkRunsAllCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s, e := newServer(t, monitor.ModeHPMP)
	b := NewBenchmark(s, e)
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range Commands {
		rps, err := b.RunCommand(cmd, 5)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if rps <= 0 {
			t.Errorf("%s: rps = %v", cmd, rps)
		}
	}
}

func TestLRangeCostGrowsWithLength(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s, e := newServer(t, monitor.ModeHPMP)
	b := NewBenchmark(s, e)
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	rps100, err := b.RunCommand("LRANGE_100", 5)
	if err != nil {
		t.Fatal(err)
	}
	rps600, err := b.RunCommand("LRANGE_600", 5)
	if err != nil {
		t.Fatal(err)
	}
	if rps600 >= rps100 {
		t.Errorf("LRANGE_600 (%.0f rps) must be slower than LRANGE_100 (%.0f rps)", rps600, rps100)
	}
}

func TestArenaExhaustion(t *testing.T) {
	mach := cpu.NewMachine(cpu.RocketPlatform(), 512*addr.MiB, true)
	mon, _ := monitor.Boot(mach, monitor.DefaultConfig(monitor.ModeHPMP))
	k, _ := kernel.New(mach, mon, kernel.DefaultConfig(512*addr.MiB))
	p, _ := k.Spawn(kernel.Image{Name: "tiny", TextPages: 4, DataPages: 4})
	e, _ := k.NewEnv(p)
	s, err := NewServer(e, 4096, 16) // 4 KiB arena
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 200; i++ {
		lastErr = s.Set(fmt.Sprintf("key-%d", i), []byte("0123456789abcdef"))
		if lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Error("tiny arena must eventually exhaust")
	}
}

func TestLargeValueAllocation(t *testing.T) {
	// Values beyond one page exercise the contiguous-run allocator path.
	s, _ := newServer(t, monitor.ModeHPMP)
	big := make([]byte, 3*4096+100)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := s.Set("blob", big); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("blob")
	if err != nil || len(got) != len(big) {
		t.Fatalf("Get blob: %d bytes, %v", len(got), err)
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	// Small allocations continue to work around the large run.
	if err := s.Set("small", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("small"); string(v) != "x" {
		t.Error("small value after large alloc")
	}
}
