package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"image"
	"image/jpeg"

	"rtoss/internal/kitti"
	"rtoss/internal/tensor"
)

// Inputs are pure functions of (seed, workload): the scene renderer is
// seeded, and the encoders are deterministic, so one seed always gives
// byte-identical request bodies.

// sceneSeed derives the renderer seed for one input family, so the
// workloads never share scenes by accident.
func sceneSeed(seed int64, salt uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ salt
	x ^= x >> 31
	return x*0xbf58476d1ce4e5b9 + 1
}

// ppmScenes renders n KITTI-aspect scenes and encodes them as PPM.
func ppmScenes(seed uint64, n, w, h int) ([][]byte, error) {
	out := make([][]byte, n)
	for i, rs := range kitti.RenderedDataset(seed, n, w, h) {
		var buf bytes.Buffer
		if err := tensor.EncodePPM(&buf, rs.Image); err != nil {
			return nil, fmt.Errorf("encoding scene %d: %w", i, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// jpegScenes renders n independent scenes as JPEG.
func jpegScenes(seed uint64, n, w, h int) ([][]byte, error) {
	return encodeJPEGs(kitti.RenderedDataset(seed, n, w, h))
}

// jpegSequence renders n consecutive frames of one moving-scene video
// as JPEG.
func jpegSequence(seed uint64, n, w, h int) ([][]byte, error) {
	return encodeJPEGs(kitti.RenderedSequence(seed, n, w, h))
}

// jpegQuality is a camera-typical encoder setting.
const jpegQuality = 90

func encodeJPEGs(scenes []kitti.RenderedScene) ([][]byte, error) {
	out := make([][]byte, len(scenes))
	for i, rs := range scenes {
		var buf bytes.Buffer
		if err := jpeg.Encode(&buf, toNRGBA(rs.Image), &jpeg.Options{Quality: jpegQuality}); err != nil {
			return nil, fmt.Errorf("encoding frame %d: %w", i, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// toNRGBA converts a [3, H, W] tensor in [0, 1] to 8-bit pixels.
func toNRGBA(t *tensor.Tensor) *image.NRGBA {
	h, w := t.Dim(1), t.Dim(2)
	img := image.NewNRGBA(image.Rect(0, 0, w, h))
	plane := h * w
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := img.Pix[y*img.Stride+4*x:]
			for c := 0; c < 3; c++ {
				p[c] = uint8(t.Data[c*plane+y*w+x]*255 + 0.5)
			}
			p[3] = 255
		}
	}
	return img
}

// digest fingerprints every input byte, in order, so two runs can show
// they fed the program the same requests.
func digest(sets ...[][]byte) string {
	h := sha256.New()
	for _, set := range sets {
		for _, b := range set {
			fmt.Fprintf(h, "%d:", len(b))
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// kib is the inputs' total size. They stay live for the whole run, so
// they are part of heap_live_mb.
func kib(set [][]byte) float64 {
	n := 0
	for _, b := range set {
		n += len(b)
	}
	return float64(n) / 1024
}
