package exp

import "testing"

// TestCacheKeyPins pins the batch cache key of a representative spec
// table to fixed hex digests. Cache files written by earlier builds stay
// addressable only while these keys hold, so any change to the workload
// cache token, the canonical policy form or the spec's JSON encoding
// fails here first. Workload specs are written with shuffled keys and
// stray spaces on purpose: their canonical form is what gets hashed.
func TestCacheKeyPins(t *testing.T) {
	for _, tc := range []struct {
		spec RunSpec
		want string
	}{
		{RunSpec{Workload: "blackscholes", Policy: CATA, FastCores: 16},
			"5c89c2fea79c3b40ee7afeea5b189e07e1a0e7797b8af4b8e4a27d276621e3ef"},
		{RunSpec{Workload: "swaptions", Policy: CATA, FastCores: 16},
			"6b2a1b660c45d357658fbde3023d68f4045aac8ea631bc53a92da224b8d288b2"},
		{RunSpec{Workload: "fluidanimate", Policy: CATA, FastCores: 16},
			"b7d28f9070a839a1970c4af16c307f7d220d9b534872b1db831a3c35e506f6ff"},
		{RunSpec{Workload: "bodytrack", Policy: CATA, FastCores: 16},
			"ec5a5f4249c2035cea9618fe2cde4adc438bf21456faf0c51e5e76f56a57da94"},
		{RunSpec{Workload: "dedup", Policy: CATA, FastCores: 16},
			"dc87d8a69093cef0419f530458e6de03f264a81056a9dc36ba3b19fdee07dbd4"},
		{RunSpec{Workload: "ferret", Policy: CATA, FastCores: 16},
			"3720c49826d6af2cbcb7fcaaa75d2bf65b7b3c6a4a5420523ec54ebb0f2ab770"},
		{RunSpec{Workload: "layered: depth=8 , width=6", Policy: FIFO, FastCores: 4, Cores: 8},
			"0204c5c44e0f2e89a3379f0659c1be9b114cc24f5c89a53e11f7c5ffc26ea0be"},
		{RunSpec{Workload: "chain:side=2, length=5,dur=500 ", Policy: CATA, FastCores: 4, Cores: 8},
			"7fa7072c55843e3ba6651f7203889094fb4487ea0d84e1970c1823d5e8cb09d9"},
		{RunSpec{Workload: "forkjoin: seed=9,width=8 ,phases=3,scale=0.5", Policy: CATARSU, FastCores: 8},
			"11cb5540f22d6fbe9ad02324455bc0ccac00921b3b665d53f99ed98b723b248c"},
		{RunSpec{Workload: "dedup", Policy: "cata+rsu", FastCores: 8, Seed: 7, Scale: 0.05},
			"2b9ca74dab4e6797314d60f14f33606ff3ba3c6f32c94f0839b5f03fa9a0dc51"},
		{RunSpec{Workload: "dedup", Policy: "CATS+BL:theta=0.8", FastCores: 8},
			"c77dc5e8343b1768f3a6bd75a59394f6c8f6b3e3f5bab58327a38ced603d9593"},
		{RunSpec{Workload: "dedup", Policy: "AMTHA:tiebreak=spread", FastCores: 8},
			"7fe59047e9ac0fa121b90d9e13df9c2b459af68daf63d7e3b97cf27982e07426"},
		{RunSpec{Workload: "dot:file=testdata/cachekey.dot", Policy: CATA, FastCores: 4, Cores: 8},
			"ec1ba147e39eeef68c014aea3b88a948fab669f0d03e0c9fbd244e34a3afc0e1"},
		{RunSpec{Workload: "forkjoin:width=4,phases=2,dur=50", Policy: CATA, FastCores: 8, Cores: 8,
			Arrivals: "poisson:lambda=2000,jobs=20,deadline=5ms"},
			"1d59dea96fba85e4cf2d9b1e56070e775f53c91a9012552d5be077e8625a3b1e"},
	} {
		got, ok := cacheKey(tc.spec)
		if !ok {
			t.Errorf("cacheKey(%v) not cacheable", tc.spec)
			continue
		}
		if got != tc.want {
			t.Errorf("cacheKey(%v) = %s, want %s", tc.spec, got, tc.want)
		}
	}
}
