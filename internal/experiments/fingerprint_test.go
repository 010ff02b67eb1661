package experiments

import "testing"

// TestFingerprintsPinned pins the absolute schedule fingerprints of the
// large-N stress, periodic steady-state and miss-storm overload scenarios
// at small sizes. The cross-configuration tests only require equal
// fingerprints across executives; this pin also catches a change to the
// hash itself or to the order completions are folded in.
func TestFingerprintsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		want uint64
		run  func() (uint64, error)
	}{
		{"stress", 0x960db78d1a7bb6a2, func() (uint64, error) {
			p := DefaultStressParams()
			p.Jobs = 1500
			r, err := RunStress(p)
			if err != nil {
				return 0, err
			}
			return r.Fingerprint, nil
		}},
		{"steady", 0xd8c94efcd9a1554b, func() (uint64, error) {
			p := DefaultSteadyStateParams()
			p.Entities = 400
			p.HorizonTU = 300
			r, err := RunPeriodicSteadyState(p)
			if err != nil {
				return 0, err
			}
			return r.Fingerprint, nil
		}},
		{"miss-storm", 0xcab24fb9b50c4c88, func() (uint64, error) {
			p := DefaultOverloadParams(OverloadMissStorm)
			p.Events = 1000
			r, err := RunOverload(p)
			if err != nil {
				return 0, err
			}
			return r.Fingerprint, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("fingerprint %#x, pinned %#x", got, tc.want)
			}
		})
	}
}
