package workloads

import (
	"hpmp/internal/addr"
	"hpmp/internal/kernel"
)

// FunctionBench-style serverless functions (§8.4): chameleon, dd, gzip,
// linpack, matmul, pyaes, image. These run as short-lived processes (the
// harness spawns a fresh process per invocation), so cold TLBs, demand
// paging, and page walks dominate — the regime where the permission table
// hurts most and HPMP recovers it.

// FuncBenchSuite returns the seven functions at scaled sizes.
func FuncBenchSuite() []Workload {
	return []Workload{
		&Chameleon{Rows: 160, Cols: 16},
		&DD{Blocks: 384, BlockSize: 4096},
		&GzipFunc{N: 48 * 1024},
		&Linpack{N: 40},
		&Matmul{N: 40},
		&PyAES{Blocks: 160},
		&ImageFunc{Width: 96, Height: 96},
	}
}

// Chameleon renders an HTML table from a template, like the FunctionBench
// chameleon workload: string assembly over an in-memory output buffer.
type Chameleon struct{ Rows, Cols int }

// Name implements Workload.
func (c *Chameleon) Name() string { return "chameleon" }

// Run implements Workload.
func (c *Chameleon) Run(e *kernel.Env) (uint64, error) {
	ip, err := newInterp(e, defaultInterpPages)
	if err != nil {
		return 0, err
	}
	out := NewByteArray(e, c.Rows*c.Cols*32+1024)
	pos := 0
	emits := 0
	emit := func(s string) {
		emits++
		if emits%2 == 0 {
			ip.op() // template engine bytecode
		}
		out.Fill(pos, []byte(s))
		pos += len(s)
		e.Compute(uint64(4 * len(s)))
	}
	emit("<table>\n")
	for r := 0; r < c.Rows; r++ {
		emit("<tr>")
		for col := 0; col < c.Cols; col++ {
			emit("<td>" + itoa(r*c.Cols+col) + "</td>")
		}
		emit("</tr>\n")
	}
	emit("</table>\n")
	// Checksum the rendered document.
	var sum uint64
	for _, b := range out.Read(0, pos) {
		sum = sum*131 + uint64(b)
	}
	return sum, e.Err()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// DD copies Blocks blocks of BlockSize bytes between two in-memory files
// (FunctionBench dd: sequential streaming I/O).
type DD struct{ Blocks, BlockSize int }

// Name implements Workload.
func (d *DD) Name() string { return "dd" }

// Run implements Workload.
func (d *DD) Run(e *kernel.Env) (uint64, error) {
	src := NewByteArray(e, d.Blocks*d.BlockSize)
	dst := NewByteArray(e, d.Blocks*d.BlockSize)
	seed := make([]byte, d.BlockSize)
	r := newRNG(3)
	for i := range seed {
		seed[i] = byte(r.next())
	}
	for b := 0; b < d.Blocks; b++ {
		src.Fill(b*d.BlockSize, seed)
	}
	var sum uint64
	for b := 0; b < d.Blocks; b++ {
		// dd's per-block read()/write() syscalls (page-cache copies).
		if err := e.K.SyscallRead(e, src.Base()+addr.VA(b*d.BlockSize), uint64(d.BlockSize)); err != nil {
			return 0, err
		}
		blk := src.Read(b*d.BlockSize, d.BlockSize)
		dst.Fill(b*d.BlockSize, blk)
		if err := e.K.SyscallWrite(e, dst.Base()+addr.VA(b*d.BlockSize), uint64(d.BlockSize)); err != nil {
			return 0, err
		}
		sum += uint64(blk[0]) + uint64(blk[len(blk)-1])
		e.Compute(64)
	}
	return sum, e.Err()
}

// GzipFunc compresses N bytes (reuses the miniz LZ engine with gzip-like
// framing).
type GzipFunc struct{ N int }

// Name implements Workload.
func (g *GzipFunc) Name() string { return "gzip" }

// Run implements Workload.
func (g *GzipFunc) Run(e *kernel.Env) (uint64, error) {
	m := &Miniz{N: g.N}
	sum, err := m.Run(e)
	if err != nil {
		return 0, err
	}
	e.Compute(2000) // CRC + header/trailer
	return sum ^ 0x8b1f, nil
}

// Linpack solves Ax=b by LU decomposition with partial pivoting over an
// N×N fixed-point matrix in simulated memory; FunctionBench's linpack is
// pure-Python loops, so interpreter ops are interleaved.
type Linpack struct {
	N int
}

// Name implements Workload.
func (l *Linpack) Name() string { return "linpack" }

// Run implements Workload.
func (l *Linpack) Run(e *kernel.Env) (uint64, error) {
	ip, err := newInterp(e, defaultInterpPages)
	if err != nil {
		return 0, err
	}
	n := l.N
	// Q32.16 fixed point stored as int64 in uint64 cells.
	a := NewU64Array(e, n*n)
	b := NewU64Array(e, n)
	r := newRNG(17)
	const one = int64(1) << 16
	get := func(i, j int) int64 { return int64(a.Get(i*n + j)) }
	set := func(i, j int, v int64) { a.Set(i*n+j, uint64(v)) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := int64(r.intn(200)-100) * one / 16
			if i == j {
				v += one * int64(n) // diagonally dominant
			}
			set(i, j, v)
		}
		b.Set(i, uint64(int64(r.intn(100))*one/8))
	}
	// LU with partial pivoting. A failed access zeroes the loads, so the
	// divisions below stop at the failure rather than divide by zero.
	for k := 0; k < n; k++ {
		// Pivot search.
		piv, pivVal := k, int64(0)
		for i := k; i < n; i++ {
			if v := get(i, k); abs64(v) > abs64(pivVal) {
				piv, pivVal = i, v
			}
		}
		if pivVal == 0 {
			return 0, e.ErrOr(errString("linpack: singular matrix"))
		}
		if piv != k {
			for j := 0; j < n; j++ {
				vk := get(k, j)
				vp := get(piv, j)
				set(k, j, vp)
				set(piv, j, vk)
			}
			bk := b.Get(k)
			bp := b.Get(piv)
			b.Set(k, bp)
			b.Set(piv, bk)
		}
		akk := get(k, k)
		if e.Err() != nil {
			return 0, e.Err()
		}
		for i := k + 1; i < n; i++ {
			factor := (get(i, k) << 16) / akk
			set(i, k, factor)
			ip.op() // row-loop bytecode
			for j := k + 1; j < n; j++ {
				akj := get(k, j)
				set(i, j, get(i, j)-(factor*akj>>16))
				if j%8 == 0 {
					ip.op()
				}
				e.Compute(6)
			}
			bi := b.Get(i)
			bk := b.Get(k)
			b.Set(i, uint64(int64(bi)-(factor*int64(bk)>>16)))
		}
	}
	// Back substitution.
	x := NewU64Array(e, n)
	for i := n - 1; i >= 0; i-- {
		acc := int64(b.Get(i))
		for j := i + 1; j < n; j++ {
			aij := get(i, j)
			acc -= aij * int64(x.Get(j)) >> 16
		}
		aii := get(i, i)
		if e.Err() != nil {
			return 0, e.Err()
		}
		x.Set(i, uint64((acc<<16)/aii))
	}
	var sum uint64
	for i := 0; i < n; i++ {
		sum += x.Get(i) & 0xffffffff
	}
	return sum, e.Err()
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Matmul multiplies two N×N integer matrices (ikj loop order).
type Matmul struct{ N int }

// Name implements Workload.
func (m *Matmul) Name() string { return "matmul" }

// Run implements Workload.
func (m *Matmul) Run(e *kernel.Env) (uint64, error) {
	n := m.N
	a := NewU64Array(e, n*n)
	b := NewU64Array(e, n*n)
	c := NewU64Array(e, n*n)
	r := newRNG(23)
	for i := 0; i < n*n; i++ {
		a.Set(i, r.next()%1000)
		b.Set(i, r.next()%1000)
		c.Set(i, 0)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.Get(i*n + k)
			for j := 0; j < n; j++ {
				bkj := b.Get(k*n + j)
				c.Set(i*n+j, c.Get(i*n+j)+aik*bkj)
				e.Compute(3)
			}
		}
	}
	var sum uint64
	for i := 0; i < n*n; i++ {
		sum ^= c.Get(i) + uint64(i)
	}
	return sum, e.Err()
}

// PyAES is AES implemented in an interpreter: the S-box walk of AES with a
// bytecode-dispatch interp op woven into every round step, like the
// pure-Python pyaes package FunctionBench uses.
type PyAES struct{ Blocks int }

// Name implements Workload.
func (p *PyAES) Name() string { return "pyaes" }

// Run implements Workload.
func (p *PyAES) Run(e *kernel.Env) (uint64, error) {
	ip, err := newInterp(e, defaultInterpPages)
	if err != nil {
		return 0, err
	}
	sbox := NewByteArray(e, 256)
	box := make([]byte, 256)
	for i := range box {
		v := byte(i)
		v = v<<1 | v>>7
		box[i] = v ^ 0x63 ^ byte(i*7)
	}
	sbox.Fill(0, box)
	buf := NewByteArray(e, p.Blocks*16)
	r := newRNG(42)
	init := make([]byte, p.Blocks*16)
	for i := range init {
		init[i] = byte(r.next())
	}
	buf.Fill(0, init)
	var sum uint64
	for b := 0; b < p.Blocks; b++ {
		var state [16]byte
		for i := 0; i < 16; i++ {
			state[i] = buf.Get(b*16 + i)
		}
		for round := 0; round < 10; round++ {
			for i := 0; i < 16; i++ {
				if i%4 == 0 {
					ip.op() // bytecode dispatch
				}
				state[i] = sbox.Get(int(state[i]))
			}
			var next [16]byte
			for i := 0; i < 16; i++ {
				next[i] = state[(i*5)%16] ^ state[(i+4)%16] ^ byte(round)
			}
			state = next
			ip.ops(4)
		}
		for i := 0; i < 16; i++ {
			buf.Set(b*16+i, state[i])
			sum += uint64(state[i])
		}
	}
	return sum, e.Err()
}

// ImageFunc resizes a Width×Height grayscale image to half size and runs a
// 3×3 blur (the FunctionBench image-processing function).
type ImageFunc struct{ Width, Height int }

// Name implements Workload.
func (im *ImageFunc) Name() string { return "image" }

// Run implements Workload.
func (im *ImageFunc) Run(e *kernel.Env) (uint64, error) {
	ip, err := newInterp(e, defaultInterpPages/2)
	if err != nil {
		return 0, err
	}
	w, h := im.Width, im.Height
	img := NewByteArray(e, w*h)
	// Load the image "file".
	if err := e.K.SyscallRead(e, img.Base(), uint64(w*h)); err != nil {
		return 0, err
	}
	r := newRNG(77)
	row := make([]byte, w)
	for y := 0; y < h; y++ {
		for x := range row {
			row[x] = byte((x*y)/3 + r.intn(16))
		}
		img.Fill(y*w, row)
	}
	// Bilinear downscale to (w/2, h/2).
	ow, oh := w/2, h/2
	small := NewByteArray(e, ow*oh)
	for y := 0; y < oh; y++ {
		ip.ops(2) // per-row PIL call overhead
		for x := 0; x < ow; x++ {
			p00 := img.Get((2*y)*w + 2*x)
			p01 := img.Get((2*y)*w + 2*x + 1)
			p10 := img.Get((2*y+1)*w + 2*x)
			p11 := img.Get((2*y+1)*w + 2*x + 1)
			avg := (uint32(p00) + uint32(p01) + uint32(p10) + uint32(p11)) / 4
			small.Set(y*ow+x, byte(avg))
			e.Compute(8)
		}
	}
	// 3×3 box blur on the small image.
	out := NewByteArray(e, ow*oh)
	var sum uint64
	for y := 1; y < oh-1; y++ {
		ip.ops(2)
		for x := 1; x < ow-1; x++ {
			var acc uint32
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					acc += uint32(small.Get((y+dy)*ow + (x + dx)))
				}
			}
			v := byte(acc / 9)
			out.Set(y*ow+x, v)
			sum += uint64(v)
			e.Compute(12)
		}
	}
	// Write the result back out.
	if err := e.K.SyscallWrite(e, out.Base(), uint64(ow*oh)); err != nil {
		return 0, err
	}
	return sum, e.Err()
}
