package workloads

import (
	"crypto/sha512"
	"encoding/binary"

	"hpmp/internal/kernel"
)

// The RV8 suite (§8.3): aes, norx, primes, sha512, qsort, dhrystone,
// miniz, bigint. Each is a compute-heavy kernel with good locality, which
// is why the paper finds even Penglai-PMPT loses ≤1.7% on them.

// RV8Suite returns the eight workloads at their default (scaled) sizes.
func RV8Suite() []Workload {
	return []Workload{
		&AES{Blocks: 512},
		&Norx{Blocks: 512},
		&Primes{Limit: 20000},
		&SHA512{Chunks: 256},
		&QSort{N: 4096},
		&Dhrystone{Iterations: 3000},
		&Miniz{N: 24 * 1024},
		&BigInt{Words: 96, Rounds: 12},
	}
}

// AES encrypts Blocks 16-byte blocks with a fixed-key AES-128-like
// round structure over simulated memory (an 8-bit S-box table plus the
// working blocks live in the simulated address space).
type AES struct{ Blocks int }

// Name implements Workload.
func (a *AES) Name() string { return "aes" }

// Run implements Workload.
func (a *AES) Run(e *kernel.Env) (uint64, error) {
	// Build the S-box in simulated memory.
	sbox := NewByteArray(e, 256)
	box := make([]byte, 256)
	for i := range box {
		v := byte(i)
		v = v<<1 | v>>7
		box[i] = v ^ 0x63 ^ byte(i*7)
	}
	sbox.Fill(0, box)
	buf := NewByteArray(e, a.Blocks*16)
	r := newRNG(42)
	init := make([]byte, a.Blocks*16)
	for i := range init {
		init[i] = byte(r.next())
	}
	buf.Fill(0, init)
	var sum uint64
	for b := 0; b < a.Blocks; b++ {
		var state [16]byte
		for i := 0; i < 16; i++ {
			state[i] = buf.Get(b*16 + i)
		}
		for round := 0; round < 10; round++ {
			// SubBytes through the in-memory S-box.
			for i := 0; i < 16; i++ {
				state[i] = sbox.Get(int(state[i]))
			}
			// ShiftRows + a MixColumns-flavoured diffusion (pure compute).
			e.Compute(60)
			var next [16]byte
			for i := 0; i < 16; i++ {
				next[i] = state[(i*5)%16] ^ state[(i+4)%16] ^ byte(round)
			}
			state = next
		}
		for i := 0; i < 16; i++ {
			buf.Set(b*16+i, state[i])
			sum += uint64(state[i])
		}
	}
	return sum, e.Err()
}

// Norx runs a NORX-flavoured 64-bit ARX permutation over in-memory state
// blocks (authenticated-encryption style absorb loop).
type Norx struct{ Blocks int }

// Name implements Workload.
func (n *Norx) Name() string { return "norx" }

// Run implements Workload.
func (n *Norx) Run(e *kernel.Env) (uint64, error) {
	state := NewU64Array(e, 16)
	for i := 0; i < 16; i++ {
		state.Set(i, uint64(i)*0x9e3779b97f4a7c15+1)
	}
	msg := NewU64Array(e, n.Blocks*4)
	r := newRNG(7)
	for i := 0; i < msg.Len(); i++ {
		msg.Set(i, r.next())
	}
	g := func(a, b uint64) uint64 {
		h := (a ^ b) ^ ((a & b) << 1)
		return h>>13 | h<<51
	}
	for blk := 0; blk < n.Blocks; blk++ {
		// Absorb four message words.
		for i := 0; i < 4; i++ {
			m := msg.Get(blk*4 + i)
			state.Set(i, state.Get(i)^m)
		}
		// Column/diagonal rounds.
		for round := 0; round < 4; round++ {
			for c := 0; c < 4; c++ {
				a := state.Get(c)
				b := state.Get(c + 4)
				cc := state.Get(c + 8)
				d := state.Get(c + 12)
				a = g(a, b)
				cc = g(cc, d)
				b = g(b, cc)
				d = g(d, a)
				e.Compute(20)
				state.Set(c, a)
				state.Set(c+4, b)
				state.Set(c+8, cc)
				state.Set(c+12, d)
			}
		}
	}
	var sum uint64
	for i := 0; i < 16; i++ {
		sum ^= state.Get(i)
	}
	return sum, e.Err()
}

// Primes sieves primes below Limit with an in-memory bit-per-byte sieve.
type Primes struct{ Limit int }

// Name implements Workload.
func (p *Primes) Name() string { return "primes" }

// Run implements Workload.
func (p *Primes) Run(e *kernel.Env) (uint64, error) {
	sieve := NewByteArray(e, p.Limit)
	if err := e.Touch(sieve.Base(), uint64(p.Limit)); err != nil {
		return 0, err
	}
	count := uint64(0)
	for i := 2; i < p.Limit; i++ {
		if sieve.Get(i) != 0 {
			continue
		}
		count++
		for j := i * i; j < p.Limit; j += i {
			sieve.Set(j, 1)
		}
	}
	return count, e.Err()
}

// SHA512 hashes Chunks 128-byte chunks read from simulated memory (the
// hashing itself is stdlib compute; the data streaming is what touches the
// memory system, as in the RV8 original).
type SHA512 struct{ Chunks int }

// Name implements Workload.
func (s *SHA512) Name() string { return "sha512" }

// Run implements Workload.
func (s *SHA512) Run(e *kernel.Env) (uint64, error) {
	data := NewByteArray(e, s.Chunks*128)
	r := newRNG(11)
	buf := make([]byte, data.Len())
	for i := range buf {
		buf[i] = byte(r.next())
	}
	data.Fill(0, buf)
	msg := make([]byte, 0, len(buf))
	for c := 0; c < s.Chunks; c++ {
		msg = append(msg, data.Read(c*128, 128)...)
		e.Compute(1600) // the chunk's 80-round compression function
	}
	sum := sha512.Sum512(msg)
	return binary.LittleEndian.Uint64(sum[:]), e.Err()
}

// QSort sorts N uint64s in simulated memory with in-place quicksort
// (median-of-three, insertion sort below 16).
type QSort struct{ N int }

// Name implements Workload.
func (q *QSort) Name() string { return "qsort" }

// Run implements Workload.
func (q *QSort) Run(e *kernel.Env) (uint64, error) {
	a := NewU64Array(e, q.N)
	r := newRNG(1234)
	vals := make([]uint64, q.N)
	for i := range vals {
		vals[i] = r.next()
	}
	a.SetRange(0, vals)
	quicksort(a, 0, q.N-1)
	// Verify sortedness and fold a checksum.
	var sum, prev uint64
	for i := 0; i < q.N; i++ {
		v := a.Get(i)
		if v < prev {
			return 0, e.ErrOr(errNotSorted)
		}
		prev = v
		sum += v * uint64(i+1)
	}
	return sum, e.Err()
}

var errNotSorted = errString("qsort: output not sorted")

type errString string

func (e errString) Error() string { return string(e) }

func quicksort(a *U64Array, lo, hi int) {
	for hi-lo > 16 {
		// Median of three.
		mid := (lo + hi) / 2
		vl := a.Get(lo)
		vm := a.Get(mid)
		vh := a.Get(hi)
		pivot := vm
		if (vl <= vm) != (vl <= vh) {
			pivot = vl
		} else if (vm <= vl) != (vm <= vh) {
			pivot = vm
		} else {
			pivot = vh
		}
		i, j := lo, hi
		for i <= j {
			// The pivot stops this scan; after a failed access the loads
			// read zero, so the failure has to stop it.
			for a.Get(i) < pivot && a.e.Err() == nil {
				i++
			}
			for a.Get(j) > pivot {
				j--
			}
			if i <= j {
				vi := a.Get(i)
				vj := a.Get(j)
				a.Set(i, vj)
				a.Set(j, vi)
				i++
				j--
			}
		}
		// Recurse on the smaller half, loop on the larger.
		if j-lo < hi-i {
			quicksort(a, lo, j)
			lo = i
		} else {
			quicksort(a, i, hi)
			hi = j
		}
	}
	// Insertion sort the remainder.
	for i := lo + 1; i <= hi; i++ {
		v := a.Get(i)
		j := i - 1
		for j >= lo {
			w := a.Get(j)
			if w <= v {
				break
			}
			a.Set(j+1, w)
			j--
		}
		a.Set(j+1, v)
	}
}

// Dhrystone runs the classic integer/string synthetic loop: record
// assignments, string comparison, pointer-chasing across a small working
// set.
type Dhrystone struct{ Iterations int }

// Name implements Workload.
func (d *Dhrystone) Name() string { return "dhrystone" }

// Run implements Workload.
func (d *Dhrystone) Run(e *kernel.Env) (uint64, error) {
	records := NewU64Array(e, 64) // two 32-word records
	strings := NewByteArray(e, 64)
	for i := 0; i < 30; i++ {
		strings.Set(i, byte('A'+i%26))
	}
	var checksum uint64
	for it := 0; it < d.Iterations; it++ {
		// Proc1-ish: copy record 1 into record 2 and tweak fields.
		for w := 0; w < 8; w++ {
			records.Set(32+w, records.Get(w)+uint64(it))
		}
		// Func2-ish: compare two strings byte by byte.
		for i := 0; i < 8; i++ {
			if strings.Get(i) == strings.Get(i+16) {
				checksum++
			}
		}
		e.Compute(90) // the arithmetic-only procedures
		v := records.Get(32)
		records.Set(0, v%1009)
		checksum += v
	}
	return checksum, e.Err()
}

// Miniz runs an LZ77-style compressor over N bytes of moderately
// compressible data in simulated memory (hash-head match finder, greedy
// emit), like the RV8 miniz benchmark.
type Miniz struct{ N int }

// Name implements Workload.
func (m *Miniz) Name() string { return "miniz" }

// Run implements Workload.
func (m *Miniz) Run(e *kernel.Env) (uint64, error) {
	src := NewByteArray(e, m.N)
	r := newRNG(99)
	buf := make([]byte, m.N)
	// Compressible input: repeated phrases with noise.
	phrase := []byte("the quick brown fox jumps over the lazy dog ")
	for i := 0; i < m.N; i++ {
		if r.intn(8) == 0 {
			buf[i] = byte(r.next())
		} else {
			buf[i] = phrase[i%len(phrase)]
		}
	}
	src.Fill(0, buf)
	heads := NewU32Array(e, 4096) // hash → last position
	dst := NewByteArray(e, m.N+m.N/8+64)
	out := 0
	emit := func(b byte) {
		dst.Set(out, b)
		out++
	}
	i := 0
	var literals, matches uint64
	for i+3 < m.N {
		b0 := src.Get(i)
		b1 := src.Get(i + 1)
		b2 := src.Get(i + 2)
		h := (uint32(b0)<<16 | uint32(b1)<<8 | uint32(b2)) * 2654435761 >> 20
		cand := heads.Get(int(h % 4096))
		heads.Set(int(h%4096), uint32(i)+1)
		matched := 0
		if cand > 0 && int(cand-1) < i {
			j := int(cand - 1)
			for matched < 255 && i+matched < m.N && src.Get(j+matched) == src.Get(i+matched) {
				matched++
			}
		}
		if matched >= 4 {
			emit(0xff)
			emit(byte(matched))
			emit(byte(i - int(cand-1)))
			i += matched
			matches++
		} else {
			emit(b0)
			i++
			literals++
		}
	}
	return uint64(out)<<32 | matches<<16 | literals&0xffff, e.Err()
}

// BigInt multiplies two Words-word big integers Rounds times (schoolbook
// with carry propagation over simulated memory).
type BigInt struct {
	Words  int
	Rounds int
}

// Name implements Workload.
func (b *BigInt) Name() string { return "bigint" }

// Run implements Workload.
func (b *BigInt) Run(e *kernel.Env) (uint64, error) {
	x := NewU64Array(e, b.Words)
	y := NewU64Array(e, b.Words)
	z := NewU64Array(e, 2*b.Words)
	r := newRNG(5)
	for i := 0; i < b.Words; i++ {
		x.Set(i, r.next())
		y.Set(i, r.next()|1)
	}
	var check uint64
	for round := 0; round < b.Rounds; round++ {
		z.Fill(0)
		for i := 0; i < b.Words; i++ {
			xi := x.Get(i)
			var carry uint64
			for j := 0; j < b.Words; j++ {
				yj := y.Get(j)
				zij := z.Get(i + j)
				// 64×64→64 truncated product (the memory pattern is what
				// matters, not 128-bit arithmetic).
				p := xi*yj + zij + carry
				carry = (xi >> 32) * (yj >> 32) >> 32
				z.Set(i+j, p)
				e.Compute(4)
			}
			z.Set(i+b.Words, z.Get(i+b.Words)+carry)
		}
		// Feed back: x = low half of z.
		for i := 0; i < b.Words; i++ {
			x.Set(i, z.Get(i)|1)
		}
		check ^= z.Get(b.Words)
	}
	return check, e.Err()
}
