package workloads

import (
	"fmt"

	"hpmp/internal/kernel"
)

// ImageChain is the multi-function serverless application of §8.4 / Fig.
// 12-c, ported from the AWS serverless repository style: four chained
// functions — validate → resize → filter → encode — each running as its own
// short-lived process with the intermediate image handed over between
// stages. The harness (internal/bench) spawns one process per stage; this
// type holds the per-stage logic.
type ImageChain struct {
	// Size is the square image edge in pixels (the paper sweeps 32..256).
	Size int
}

// Name implements Workload (whole chain in a single process, used by unit
// tests; the bench runs StageCount separate processes).
func (c *ImageChain) Name() string { return fmt.Sprintf("image-chain-%d", c.Size) }

// StageCount is the number of functions in the chain.
const StageCount = 4

// RunStage executes one stage in the environment. input is the serialized
// image from the previous stage (nil for stage 0); it returns the stage's
// output payload.
//
// Every stage first pays the serverless-framework cost: the function
// runtime imports its handler, deserializes the event, and routes it —
// interpreted work over a scattered heap, fixed per invocation. Small
// images are dominated by it (where the permission table hurts most);
// large images amortize it — the Fig. 12-c trend.
func (c *ImageChain) RunStage(e *kernel.Env, stage int, input []byte) ([]byte, error) {
	ip, err := newInterpSnapshot(e, 256)
	if err != nil {
		return nil, err
	}
	ip.ops(250) // handler import + event decode + routing
	var out []byte
	switch stage {
	case 0:
		out, err = c.generateAndValidate(e)
	case 1:
		out = c.resize(e, input)
	case 2:
		out = c.filter(e, input)
	case 3:
		out = c.encode(e, input)
	default:
		return nil, fmt.Errorf("imagechain: no stage %d", stage)
	}
	if err := e.ErrOr(err); err != nil {
		return nil, err
	}
	return out, nil
}

// Run implements Workload: all four stages in one process.
func (c *ImageChain) Run(e *kernel.Env) (uint64, error) {
	var payload []byte
	var err error
	for s := 0; s < StageCount; s++ {
		payload, err = c.RunStage(e, s, payload)
		if err != nil {
			return 0, err
		}
	}
	var sum uint64
	for _, b := range payload {
		sum = sum*31 + uint64(b)
	}
	return sum, nil
}

// generateAndValidate synthesizes the client upload in simulated memory
// and checks its header.
func (c *ImageChain) generateAndValidate(e *kernel.Env) ([]byte, error) {
	n := c.Size * c.Size
	img := NewByteArray(e, n+8)
	img.Fill(0, []byte{'I', 'M', 'G', '1', byte(c.Size), byte(c.Size >> 8), 0, 0})
	r := newRNG(uint64(c.Size))
	row := make([]byte, c.Size)
	for y := 0; y < c.Size; y++ {
		for x := range row {
			row[x] = byte(x ^ y + r.intn(8))
		}
		img.Fill(8+y*c.Size, row)
	}
	// Validate: re-read the header and a sample of pixels.
	if string(img.Read(0, 8)[:4]) != "IMG1" {
		return nil, fmt.Errorf("imagechain: bad header")
	}
	e.Compute(2000)
	return img.Read(0, n+8), nil
}

// resize halves the image (bilinear), returning a new payload.
func (c *ImageChain) resize(e *kernel.Env, input []byte) []byte {
	size := int(input[4]) | int(input[5])<<8
	src := NewByteArray(e, len(input))
	src.Fill(0, input)
	out := size / 2
	dst := NewByteArray(e, out*out+8)
	dst.Fill(0, []byte{'I', 'M', 'G', '1', byte(out), byte(out >> 8), 0, 0})
	for y := 0; y < out; y++ {
		for x := 0; x < out; x++ {
			p00 := src.Get(8 + (2*y)*size + 2*x)
			p01 := src.Get(8 + (2*y)*size + 2*x + 1)
			p10 := src.Get(8 + (2*y+1)*size + 2*x)
			p11 := src.Get(8 + (2*y+1)*size + 2*x + 1)
			dst.Set(8+y*out+x, byte((int(p00)+int(p01)+int(p10)+int(p11))/4))
			e.Compute(10)
		}
	}
	return dst.Read(0, out*out+8)
}

// filter sharpens with a 3×3 kernel.
func (c *ImageChain) filter(e *kernel.Env, input []byte) []byte {
	size := int(input[4]) | int(input[5])<<8
	src := NewByteArray(e, len(input))
	src.Fill(0, input)
	dst := NewByteArray(e, len(input))
	dst.Fill(0, input[:8])
	for y := 1; y < size-1; y++ {
		for x := 1; x < size-1; x++ {
			center := src.Get(8 + y*size + x)
			up := src.Get(8 + (y-1)*size + x)
			down := src.Get(8 + (y+1)*size + x)
			left := src.Get(8 + y*size + x - 1)
			right := src.Get(8 + y*size + x + 1)
			v := 5*int(center) - int(up) - int(down) - int(left) - int(right)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			dst.Set(8+y*size+x, byte(v))
			e.Compute(10)
		}
	}
	return dst.Read(0, len(input))
}

// encode run-length encodes the final image (the "return a new image"
// step).
func (c *ImageChain) encode(e *kernel.Env, input []byte) []byte {
	src := NewByteArray(e, len(input))
	src.Fill(0, input)
	dst := NewByteArray(e, 2*len(input)+16)
	out := 0
	i := 8
	for i < len(input) {
		b := src.Get(i)
		run := 1
		for i+run < len(input) && run < 255 && src.Get(i+run) == b {
			run++
		}
		dst.Set(out, byte(run))
		dst.Set(out+1, b)
		out += 2
		i += run
		e.Compute(6)
	}
	return dst.Read(0, out)
}
