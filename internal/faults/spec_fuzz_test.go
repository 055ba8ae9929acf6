package faults

import (
	"math"
	"reflect"
	"testing"
)

// FuzzFaultsSpec throws arbitrary strings at the -faults grammar. Every
// spec ParseSpec accepts must validate, carry only finite in-range float
// fields, and survive a String/ParseSpec round trip unchanged.
func FuzzFaultsSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"mtbf=200,mttr=50",
		"mtbf=200",
		"mttr=20",
		"loss=0.2",
		"burst=0.1:4",
		"lg=0.05,lb=0.9,pgb=0.01,pbg=0.2",
		"mtbf=100,mttr=25,lg=0.1,part=5:20:x:50,part=30:40:y:25,warmup=100,seed=42",
		"nope=1", "mtbf", "loss=2", "pgb=0.1",
		"part=1:1:x:5", "part=1:2:z:5", "burst=0.5", "warmup=-3",
		"mtbf=NaN", "mtbf=Inf", "mtbf=-1", "mtbf=100,mttr=NaN", "mtbf=100,mttr=-Inf",
		"mttr=-5", "loss=NaN", "burst=NaN:3", "burst=0.2:Inf", "part=0:10:x:NaN",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) returned a spec Validate rejects: %v", in, err)
		}
		finiteAtLeast0 := func(v float64) bool { return !math.IsInf(v, 0) && v >= 0 }
		prob := func(v float64) bool { return v >= 0 && v <= 1 }
		if !finiteAtLeast0(s.MeanUp) || !finiteAtLeast0(s.MeanDown) {
			t.Fatalf("ParseSpec(%q): churn means %g/%g out of range", in, s.MeanUp, s.MeanDown)
		}
		if !prob(s.LossGood) || !prob(s.LossBad) || !prob(s.PGoodBad) || !prob(s.PBadGood) {
			t.Fatalf("ParseSpec(%q): link-chain probabilities out of [0, 1]: %+v", in, s)
		}
		for _, pt := range s.Partitions {
			if math.IsNaN(pt.Coord) || math.IsInf(pt.Coord, 0) {
				t.Fatalf("ParseSpec(%q): partition coordinate %g", in, pt.Coord)
			}
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) → %q does not re-parse: %v", in, s.String(), err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("ParseSpec(%q) → %q → %+v, want %+v", in, s.String(), again, s)
		}
	})
}
