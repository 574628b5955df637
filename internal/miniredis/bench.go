package miniredis

import (
	"fmt"

	"hpmp/internal/kernel"
)

// Benchmark mirrors redis-benchmark's defaults from the paper's §8.5
// methodology: 3-byte values and one result per command type, reported as
// requests per second of simulated time. Requests run one after another on
// the one simulated core, so redis-benchmark's 50 clients are not modelled.
type Benchmark struct {
	Server   *Server
	Env      *kernel.Env
	DataSize int
	Keyspace int
	rng      uint64
}

// Commands is the Fig. 12-d/e command list, in the paper's order.
var Commands = []string{
	"PING_INLINE", "PING_BULK", "SET", "GET", "INCR",
	"LPUSH", "RPUSH", "LPOP", "RPOP", "SADD", "HSET", "SPOP",
	"LRANGE_100", "LRANGE_300", "LRANGE_500", "LRANGE_600", "MSET",
}

// NewBenchmark builds a driver with redis-benchmark defaults.
func NewBenchmark(s *Server, e *kernel.Env) *Benchmark {
	return &Benchmark{
		Server:   s,
		Env:      e,
		DataSize: 3,
		Keyspace: 1000,
		rng:      0x8badf00d,
	}
}

func (b *Benchmark) rand() uint64 {
	b.rng ^= b.rng >> 12
	b.rng ^= b.rng << 25
	b.rng ^= b.rng >> 27
	return b.rng * 0x2545f4914f6cdd1d
}

func (b *Benchmark) key(prefix string) string {
	return fmt.Sprintf("%s:%d", prefix, b.rand()%uint64(b.Keyspace))
}

func (b *Benchmark) value() []byte {
	v := make([]byte, b.DataSize)
	for i := range v {
		v[i] = byte('a' + b.rand()%26)
	}
	return v
}

// networkCost models the per-request protocol handling: socket read,
// RESP parse, and reply write. Inline commands parse slightly cheaper
// bulk framing.
func (b *Benchmark) networkCost(inline bool) {
	if inline {
		b.Env.Compute(260)
	} else {
		b.Env.Compute(320)
	}
}

// Prepare seeds the keyspace: strings for GET, a long list for LRANGE, set
// and hash members — what redis-benchmark finds when it starts.
func (b *Benchmark) Prepare() error {
	for i := 0; i < 200; i++ {
		if err := b.Server.Set(fmt.Sprintf("key:%d", i), b.value()); err != nil {
			return err
		}
	}
	for i := 0; i < 650; i++ {
		if _, err := b.Server.RPush("mylist", b.value()); err != nil {
			return err
		}
	}
	for i := 0; i < 64; i++ {
		if _, err := b.Server.SAdd("myset", fmt.Sprintf("el:%d", i)); err != nil {
			return err
		}
	}
	return nil
}

// RunCommand executes `requests` instances of one command type and returns
// the requests-per-second of simulated time.
func (b *Benchmark) RunCommand(cmd string, requests int) (float64, error) {
	start := b.Env.Now()
	for i := 0; i < requests; i++ {
		if err := b.one(cmd); err != nil {
			return 0, fmt.Errorf("%s: %w", cmd, err)
		}
	}
	cycles := b.Env.Now() - start
	if cycles == 0 {
		return 0, fmt.Errorf("%s: consumed no cycles", cmd)
	}
	secs := float64(cycles) / (b.Env.K.Mach.Core.Cfg.ClockGHz * 1e9)
	return float64(requests) / secs, nil
}

// one dispatches a single request.
func (b *Benchmark) one(cmd string) error {
	switch cmd {
	case "PING_INLINE":
		b.networkCost(true)
		b.Server.Ping()
		return nil
	case "PING_BULK":
		b.networkCost(false)
		b.Server.Ping()
		return nil
	case "SET":
		b.networkCost(false)
		return b.Server.Set(b.key("key"), b.value())
	case "GET":
		b.networkCost(false)
		_, err := b.Server.Get(b.key("key"))
		return err
	case "INCR":
		b.networkCost(false)
		_, err := b.Server.Incr(b.key("counter"))
		return err
	case "LPUSH":
		b.networkCost(false)
		_, err := b.Server.LPush("mylist", b.value())
		return err
	case "RPUSH":
		b.networkCost(false)
		_, err := b.Server.RPush("mylist", b.value())
		return err
	case "LPOP":
		b.networkCost(false)
		// Keep the list from draining: push back what we pop.
		v, err := b.Server.LPop("mylist")
		if err != nil {
			return err
		}
		if v == nil {
			_, err = b.Server.RPush("mylist", b.value())
			return err
		}
		return nil
	case "RPOP":
		b.networkCost(false)
		v, err := b.Server.RPop("mylist")
		if err != nil {
			return err
		}
		if v == nil {
			_, err = b.Server.LPush("mylist", b.value())
			return err
		}
		return nil
	case "SADD":
		b.networkCost(false)
		_, err := b.Server.SAdd("myset", b.key("el"))
		return err
	case "HSET":
		b.networkCost(false)
		_, err := b.Server.HSet("myhash", b.key("field"), b.value())
		return err
	case "SPOP":
		b.networkCost(false)
		m, err := b.Server.SPop("myset")
		if err != nil {
			return err
		}
		if m == "" {
			_, err = b.Server.SAdd("myset", b.key("el"))
			return err
		}
		return nil
	case "LRANGE_100", "LRANGE_300", "LRANGE_500", "LRANGE_600":
		b.networkCost(false)
		n := 100
		switch cmd {
		case "LRANGE_300":
			n = 300
		case "LRANGE_500":
			n = 450 // redis-benchmark's LRANGE_500 fetches 450
		case "LRANGE_600":
			n = 600
		}
		out, err := b.Server.LRange("mylist", 0, n-1)
		if err != nil {
			return err
		}
		// Serializing the multi-bulk reply costs per element (RESP bulk
		// header + payload copy into the output buffer).
		b.Env.Compute(uint64(40 * len(out)))
		return nil
	case "MSET":
		b.networkCost(false)
		pairs := make(map[string][]byte, 10)
		for i := 0; i < 10; i++ {
			pairs[b.key("mset")] = b.value()
		}
		return b.Server.MSet(pairs)
	default:
		return fmt.Errorf("miniredis: unknown benchmark command %q", cmd)
	}
}
