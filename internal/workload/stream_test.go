package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"refrint/internal/config"
)

// streamDigest returns the FNV-64a digest of the first n references of one
// thread (fewer if its quota ends first).
func streamDigest(p Params, cfg config.Config, thread int, seed int64, n int) uint64 {
	g := NewGenerator(p, cfg, thread, seed)
	h := fnv.New64a()
	var buf [26]byte
	for i := 0; i < n; i++ {
		a, ok := g.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(a.Addr))
		buf[8] = byte(a.Type)
		binary.LittleEndian.PutUint64(buf[9:], uint64(a.Core))
		binary.LittleEndian.PutUint64(buf[17:], uint64(a.Gap))
		buf[25] = 0
		if a.Shared {
			buf[25] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// streamDigests pins the first 20k references of every app, preset, seed
// and edge thread.  The values were recorded from the generator when it drew
// from a *rand.Rand; any change to the reference stream changes them.
var streamDigests = map[string]uint64{
	"scaled/FFT/1/0":               0x03c6e5d23797688d,
	"scaled/FFT/1/15":              0x8b4bc4a56ca63329,
	"scaled/FFT/2/0":               0x2345e0690e8bfddc,
	"scaled/FFT/2/15":              0xb347817dc635abbb,
	"scaled/FFT/-7/0":              0xe7d276a314a7aa85,
	"scaled/FFT/-7/15":             0x8a62d772fa2a8b99,
	"scaled/LU/1/0":                0x1fa4ccb193f099ae,
	"scaled/LU/1/15":               0x4755ccce9057bd83,
	"scaled/LU/2/0":                0xdfdef26cee46d87d,
	"scaled/LU/2/15":               0xc3b03b9e9ec2b3bb,
	"scaled/LU/-7/0":               0x00c3eac569b5ae22,
	"scaled/LU/-7/15":              0xb7391ee6c3f1eef7,
	"scaled/Radix/1/0":             0x2078e2dcf676d692,
	"scaled/Radix/1/15":            0xe800878f7300caf0,
	"scaled/Radix/2/0":             0xa6c097bf5421757b,
	"scaled/Radix/2/15":            0x2c2382f17ccdbe3b,
	"scaled/Radix/-7/0":            0xe653881252d9daf5,
	"scaled/Radix/-7/15":           0xbe02a42d65606bd3,
	"scaled/Cholesky/1/0":          0xcd4ff5e2d5c25062,
	"scaled/Cholesky/1/15":         0xbf35bf06343c325a,
	"scaled/Cholesky/2/0":          0x975568348c6f15b7,
	"scaled/Cholesky/2/15":         0x0dd2016880e140f5,
	"scaled/Cholesky/-7/0":         0x6a96cd98d43c80c6,
	"scaled/Cholesky/-7/15":        0x53cedf0efee6a93b,
	"scaled/Barnes/1/0":            0x7462fb1c438e9f9f,
	"scaled/Barnes/1/15":           0x19fba1a70ae905c5,
	"scaled/Barnes/2/0":            0x246a2327d8daec14,
	"scaled/Barnes/2/15":           0xd7c76a86dc49c7e7,
	"scaled/Barnes/-7/0":           0x477884ab9327cccb,
	"scaled/Barnes/-7/15":          0x739ec47cf3557187,
	"scaled/FMM/1/0":               0x28e42d86d079cd58,
	"scaled/FMM/1/15":              0xe8ec79cc12785f5e,
	"scaled/FMM/2/0":               0xe8d81b80b3cabefb,
	"scaled/FMM/2/15":              0x5c427d52dda2de0a,
	"scaled/FMM/-7/0":              0x81af3478e60d1388,
	"scaled/FMM/-7/15":             0x33bb8b95ad82777f,
	"scaled/Radiosity/1/0":         0xbc75fab52d0d2db1,
	"scaled/Radiosity/1/15":        0xe0a8d5c877bd2411,
	"scaled/Radiosity/2/0":         0xcc3ac3a083d9e3ce,
	"scaled/Radiosity/2/15":        0xc8cfb545ccda1020,
	"scaled/Radiosity/-7/0":        0x98cae30169803692,
	"scaled/Radiosity/-7/15":       0xc0839eac4a59830e,
	"scaled/Raytrace/1/0":          0x09308fb3728a3ee7,
	"scaled/Raytrace/1/15":         0x1fffa3e538a54eed,
	"scaled/Raytrace/2/0":          0xab36790ede3eadc1,
	"scaled/Raytrace/2/15":         0x40b8ea154bf9346c,
	"scaled/Raytrace/-7/0":         0xb148427fb13b7f9c,
	"scaled/Raytrace/-7/15":        0x8fdc9c7661e58812,
	"scaled/Streamcluster/1/0":     0x42745cfe0fe237b2,
	"scaled/Streamcluster/1/15":    0x07da058349058cd1,
	"scaled/Streamcluster/2/0":     0x917830568d7e5d87,
	"scaled/Streamcluster/2/15":    0xb647fac63898f772,
	"scaled/Streamcluster/-7/0":    0x36103de3124ec29c,
	"scaled/Streamcluster/-7/15":   0x7087e123e058a948,
	"scaled/Blackscholes/1/0":      0x14343647b2291ec6,
	"scaled/Blackscholes/1/15":     0x4a52472c4ed598af,
	"scaled/Blackscholes/2/0":      0xe580e6d8aced4ff0,
	"scaled/Blackscholes/2/15":     0xa6470f73c20b6d1f,
	"scaled/Blackscholes/-7/0":     0x19ef1648c24685ba,
	"scaled/Blackscholes/-7/15":    0x04a9e58df641ef4e,
	"scaled/Fluidanimate/1/0":      0x365e3402b8079303,
	"scaled/Fluidanimate/1/15":     0x24faefb676c44757,
	"scaled/Fluidanimate/2/0":      0xbb519fcce95a263a,
	"scaled/Fluidanimate/2/15":     0x33b973498efa821d,
	"scaled/Fluidanimate/-7/0":     0xeb61ba8948b305b3,
	"scaled/Fluidanimate/-7/15":    0xa704f5242e1bbeb9,
	"fullsize/FFT/1/0":             0x4784f0d4052e358c,
	"fullsize/FFT/1/15":            0xd01b1daca1275809,
	"fullsize/FFT/2/0":             0x329d54d3d6db2cb5,
	"fullsize/FFT/2/15":            0x119de47634f0ef6f,
	"fullsize/FFT/-7/0":            0x432d7e016c290924,
	"fullsize/FFT/-7/15":           0x57c72deaefcbe23d,
	"fullsize/LU/1/0":              0xbb265ac1825c164c,
	"fullsize/LU/1/15":             0x76e1ca6da030412e,
	"fullsize/LU/2/0":              0x37f8176c00088f94,
	"fullsize/LU/2/15":             0xa18adbb84fcecec9,
	"fullsize/LU/-7/0":             0xbad35a3c83004cb5,
	"fullsize/LU/-7/15":            0x1badc76e608ec897,
	"fullsize/Radix/1/0":           0x5a457442c2f95639,
	"fullsize/Radix/1/15":          0x7efec53d51e77e75,
	"fullsize/Radix/2/0":           0x5bedcd4e181e172b,
	"fullsize/Radix/2/15":          0x1b4c77dc6deeb9f9,
	"fullsize/Radix/-7/0":          0x0d49168d9239b83c,
	"fullsize/Radix/-7/15":         0x67e1f29a0f3a38a1,
	"fullsize/Cholesky/1/0":        0x8681f6d46f5f8cfa,
	"fullsize/Cholesky/1/15":       0x2ba48440ffbf332d,
	"fullsize/Cholesky/2/0":        0xa131ff4a2109f510,
	"fullsize/Cholesky/2/15":       0x65d41207156b5ec2,
	"fullsize/Cholesky/-7/0":       0x40e0a1f05a8556cd,
	"fullsize/Cholesky/-7/15":      0x923d164eefcdba28,
	"fullsize/Barnes/1/0":          0x21a6f9dd7f8467ee,
	"fullsize/Barnes/1/15":         0x70024a8f337cd728,
	"fullsize/Barnes/2/0":          0x380f4e144243beb3,
	"fullsize/Barnes/2/15":         0x640d8efa9b290cbd,
	"fullsize/Barnes/-7/0":         0x04c73ab386897360,
	"fullsize/Barnes/-7/15":        0x42edf0e27d306c4b,
	"fullsize/FMM/1/0":             0x96f72286cb7d2c37,
	"fullsize/FMM/1/15":            0xd55d7b8d6531d29c,
	"fullsize/FMM/2/0":             0x314328f51898bc91,
	"fullsize/FMM/2/15":            0xd55863d69dd849a5,
	"fullsize/FMM/-7/0":            0x9ebb8e2fe268d43b,
	"fullsize/FMM/-7/15":           0x7e4c0c1086e1e694,
	"fullsize/Radiosity/1/0":       0xb51994b055b6f106,
	"fullsize/Radiosity/1/15":      0x04822d3c5f7324ce,
	"fullsize/Radiosity/2/0":       0x3b87b055cb46b46d,
	"fullsize/Radiosity/2/15":      0xa633714507acda8c,
	"fullsize/Radiosity/-7/0":      0xccbfc1b3d24af63b,
	"fullsize/Radiosity/-7/15":     0xd6cc9cba0d74c922,
	"fullsize/Raytrace/1/0":        0xa5e3badbc879536c,
	"fullsize/Raytrace/1/15":       0x2bfff05bbc0f27fc,
	"fullsize/Raytrace/2/0":        0xb58deaac6e7b499f,
	"fullsize/Raytrace/2/15":       0x15d19422edf7e8ec,
	"fullsize/Raytrace/-7/0":       0xd3ceb60cdddde61e,
	"fullsize/Raytrace/-7/15":      0xe575e6f2e91c98c6,
	"fullsize/Streamcluster/1/0":   0xee2564b7ecb15d28,
	"fullsize/Streamcluster/1/15":  0x18b90139a018eb93,
	"fullsize/Streamcluster/2/0":   0xd64ba94eac984267,
	"fullsize/Streamcluster/2/15":  0x855c37746e3a0a85,
	"fullsize/Streamcluster/-7/0":  0x84020b727cd54ee1,
	"fullsize/Streamcluster/-7/15": 0x2015b10ebc76f31a,
	"fullsize/Blackscholes/1/0":    0xfdad2554c3ef57c2,
	"fullsize/Blackscholes/1/15":   0xd039026b3507c215,
	"fullsize/Blackscholes/2/0":    0xd2ce8a59ed173af0,
	"fullsize/Blackscholes/2/15":   0x11d1b0e6de056da8,
	"fullsize/Blackscholes/-7/0":   0x08feb64fe0bcff21,
	"fullsize/Blackscholes/-7/15":  0x6e7966bfddd843c9,
	"fullsize/Fluidanimate/1/0":    0x6184bf3a72fb494e,
	"fullsize/Fluidanimate/1/15":   0x6848a494d2d1baf1,
	"fullsize/Fluidanimate/2/0":    0x34211475873892a2,
	"fullsize/Fluidanimate/2/15":   0x5e4850a134db75fe,
	"fullsize/Fluidanimate/-7/0":   0xa504775de2519127,
	"fullsize/Fluidanimate/-7/15":  0xd5b00ca95c4627a5,
}

func TestGeneratorStreamDigest(t *testing.T) {
	seen := 0
	for _, cfg := range []config.Config{config.Scaled(), config.FullSize()} {
		for _, name := range AppNames() {
			p := ForConfig(mustGet(t, name), cfg)
			for _, seed := range []int64{1, 2, -7} {
				for _, thread := range []int{0, cfg.Cores - 1} {
					key := fmt.Sprintf("%s/%s/%d/%d", cfg.Name, name, seed, thread)
					want, ok := streamDigests[key]
					if !ok {
						t.Fatalf("no pinned digest for %s", key)
					}
					seen++
					if sum := streamDigest(p, cfg, thread, seed, 20000); sum != want {
						t.Errorf("%s: digest %#016x, want %#016x", key, sum, want)
					}
				}
			}
		}
	}
	if seen != len(streamDigests) {
		t.Errorf("checked %d streams, table pins %d", seen, len(streamDigests))
	}
}
