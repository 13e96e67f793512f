package nodeset

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() {
		t.Fatal("Empty() not empty")
	}
	if e.Len() != 0 {
		t.Fatalf("Empty().Len() = %d, want 0", e.Len())
	}
	if e.Contains(0) || e.Contains(63) || e.Contains(64) {
		t.Fatal("Empty() contains an element")
	}
	if e.Min() != -1 || e.Max() != -1 {
		t.Fatalf("Empty() Min/Max = %d/%d, want -1/-1", e.Min(), e.Max())
	}
	if got := e.String(); got != "{}" {
		t.Fatalf("Empty().String() = %q, want {}", got)
	}
}

func TestZeroValueIsEmpty(t *testing.T) {
	var s Set
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatal("zero-value Set is not the empty set")
	}
	if !s.Equal(Empty()) {
		t.Fatal("zero-value Set != Empty()")
	}
}

func TestOfAndContains(t *testing.T) {
	tests := []struct {
		name string
		ids  []int
		in   []int
		out  []int
	}{
		{"single", []int{3}, []int{3}, []int{0, 2, 4, 64}},
		{"word boundary", []int{63, 64, 65}, []int{63, 64, 65}, []int{62, 66, 127, 128}},
		{"duplicates collapse", []int{5, 5, 5}, []int{5}, []int{4, 6}},
		{"sparse", []int{0, 200}, []int{0, 200}, []int{1, 199, 201}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := Of(tt.ids...)
			for _, id := range tt.in {
				if !s.Contains(id) {
					t.Errorf("Contains(%d) = false, want true", id)
				}
			}
			for _, id := range tt.out {
				if s.Contains(id) {
					t.Errorf("Contains(%d) = true, want false", id)
				}
			}
		})
	}
}

func TestContainsNegative(t *testing.T) {
	if Of(1, 2).Contains(-1) {
		t.Fatal("Contains(-1) = true")
	}
}

func TestAddRemove(t *testing.T) {
	s := Of(1, 2, 3)
	s2 := s.Add(100)
	if s.Contains(100) {
		t.Fatal("Add mutated receiver")
	}
	if !s2.Contains(100) || s2.Len() != 4 {
		t.Fatal("Add did not add")
	}
	s3 := s2.Remove(100)
	if !s3.Equal(s) {
		t.Fatalf("remove after add: got %v, want %v", s3, s)
	}
	if !s.Remove(99).Equal(s) {
		t.Fatal("removing a non-member changed the set")
	}
	// Removing the top element must renormalize so Equal still works.
	top := Of(500)
	if !top.Remove(500).Equal(Empty()) {
		t.Fatal("Remove(top) != Empty")
	}
}

func TestRange(t *testing.T) {
	tests := []struct {
		lo, hi int
		want   []int
	}{
		{0, 0, nil},
		{5, 3, nil},
		{0, 3, []int{0, 1, 2}},
		{62, 66, []int{62, 63, 64, 65}},
	}
	for _, tt := range tests {
		got := Range(tt.lo, tt.hi).Members()
		want := tt.want
		if want == nil {
			want = []int{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Range(%d,%d) = %v, want %v", tt.lo, tt.hi, got, want)
		}
	}
}

func TestUniverse(t *testing.T) {
	u := Universe(10)
	if u.Len() != 10 || u.Min() != 0 || u.Max() != 9 {
		t.Fatalf("Universe(10) wrong: %v", u)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(1, 2, 3, 64)
	b := Of(3, 4, 64, 100)
	if got := a.Union(b).Members(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 64, 100}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Members(); !reflect.DeepEqual(got, []int{3, 64}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b).Members(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Minus = %v", got)
	}
	if got := a.SymmetricDiff(b).Members(); !reflect.DeepEqual(got, []int{1, 2, 4, 100}) {
		t.Errorf("SymmetricDiff = %v", got)
	}
}

func TestSubsetRelations(t *testing.T) {
	a := Of(1, 2)
	b := Of(1, 2, 3)
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if !a.SubsetOf(a) {
		t.Fatal("a not subset of itself")
	}
	if !a.ProperSubsetOf(b) || a.ProperSubsetOf(a) {
		t.Fatal("ProperSubsetOf wrong")
	}
	if !Empty().SubsetOf(a) {
		t.Fatal("empty not subset")
	}
	// Subset comparison across different word lengths.
	if Of(100).SubsetOf(Of(1)) {
		t.Fatal("{100} ⊆ {1}")
	}
}

func TestIntersectsDisjoint(t *testing.T) {
	if !Of(1, 64).Intersects(Of(64)) {
		t.Fatal("Intersects false negative")
	}
	if Of(1).Intersects(Of(2)) {
		t.Fatal("Intersects false positive")
	}
	if !Of(1).Disjoint(Of(2)) {
		t.Fatal("Disjoint false negative")
	}
	if !Empty().Disjoint(Empty()) {
		t.Fatal("empty sets not disjoint")
	}
}

func TestMinMaxMembers(t *testing.T) {
	s := Of(7, 3, 200, 64)
	if s.Min() != 3 {
		t.Errorf("Min = %d", s.Min())
	}
	if s.Max() != 200 {
		t.Errorf("Max = %d", s.Max())
	}
	if got := s.Members(); !reflect.DeepEqual(got, []int{3, 7, 64, 200}) {
		t.Errorf("Members = %v", got)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := Of(1, 2, 3, 4, 5)
	var seen []int
	s.ForEach(func(id int) bool {
		seen = append(seen, id)
		return len(seen) < 3
	})
	if !reflect.DeepEqual(seen, []int{1, 2, 3}) {
		t.Fatalf("early stop saw %v", seen)
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Set
		want int
	}{
		{Empty(), Empty(), 0},
		{Of(1), Of(1), 0},
		{Of(1), Of(1, 2), -1},    // smaller cardinality first
		{Of(1, 2), Of(1), 1},     //
		{Of(1, 3), Of(2, 3), -1}, // lexicographic on members
		{Of(2, 3), Of(1, 4), 1},  //
		{Of(64), Of(65), -1},     // across word boundaries
		{Of(0, 100), Of(1, 99), -1} /* min member 0 < 1 */}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.Compare(tt.a); got != -tt.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tt.b, tt.a, got, -tt.want)
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	sets := []Set{Empty(), Of(0), Of(1), Of(0, 1), Of(64), Of(0, 64), Of(63), Of(63, 64)}
	keys := map[string]Set{}
	for _, s := range sets {
		k := s.Key()
		if prev, ok := keys[k]; ok {
			t.Fatalf("Key collision between %v and %v", prev, s)
		}
		keys[k] = s
	}
	// Key must be stable under normal-form round trips.
	if Of(500).Remove(500).Key() != Empty().Key() {
		t.Fatal("Key not normalized")
	}
}

func TestString(t *testing.T) {
	if got := Of(3, 1, 2).String(); got != "{1, 2, 3}" {
		t.Fatalf("String = %q", got)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	s := Of(0, 63, 64, 130)
	if !FromWords(s.Words()).Equal(s) {
		t.Fatal("FromWords(Words()) round trip failed")
	}
	// FromWords must normalize trailing zeros.
	if !FromWords([]uint64{1, 0, 0}).Equal(Of(0)) {
		t.Fatal("FromWords did not normalize")
	}
	// FromWords must copy its input.
	w := []uint64{1}
	s2 := FromWords(w)
	w[0] = 2
	if !s2.Equal(Of(0)) {
		t.Fatal("FromWords aliased its input")
	}
}

func TestSubsetsEnumeration(t *testing.T) {
	s := Of(2, 5, 9)
	var got []string
	s.Subsets(func(sub Set) bool {
		if !sub.SubsetOf(s) {
			t.Errorf("enumerated non-subset %v", sub)
		}
		got = append(got, sub.String())
		return true
	})
	if len(got) != 8 {
		t.Fatalf("enumerated %d subsets, want 8", len(got))
	}
	sort.Strings(got)
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("duplicate subset %s", got[i])
		}
	}
}

func TestSubsetsEarlyStop(t *testing.T) {
	n := 0
	Of(1, 2, 3, 4).Subsets(func(Set) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop after %d, want 5", n)
	}
}

func TestSubsetsGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Subsets on 31 members did not panic")
		}
	}()
	Universe(31).Subsets(func(Set) bool { return true })
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	Empty().Add(-1)
}

// randomSet draws a set over {0..n-1} with density p.
func randomSet(r *rand.Rand, n int, p float64) Set {
	var s Set
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			s = s.Add(i)
		}
	}
	return s
}

// genSet adapts randomSet to testing/quick's generator protocol.
type genSet struct{ S Set }

func (genSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(130)
	return reflect.ValueOf(genSet{S: randomSet(r, n, r.Float64())})
}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(a, b genSet) bool { return a.S.Union(b.S).Equal(b.S.Union(a.S)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectCommutative(t *testing.T) {
	f := func(a, b genSet) bool { return a.S.Intersect(b.S).Equal(b.S.Intersect(a.S)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// a \ (b ∪ c) == (a \ b) ∩ (a \ c)
	f := func(a, b, c genSet) bool {
		lhs := a.S.Minus(b.S.Union(c.S))
		rhs := a.S.Minus(b.S).Intersect(a.S.Minus(c.S))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionAssociative(t *testing.T) {
	f := func(a, b, c genSet) bool {
		return a.S.Union(b.S).Union(c.S).Equal(a.S.Union(b.S.Union(c.S)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLenUnionInclusionExclusion(t *testing.T) {
	f := func(a, b genSet) bool {
		return a.S.Union(b.S).Len() == a.S.Len()+b.S.Len()-a.S.Intersect(b.S).Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSymmetricDiffViaMinus(t *testing.T) {
	f := func(a, b genSet) bool {
		want := a.S.Minus(b.S).Union(b.S.Minus(a.S))
		return a.S.SymmetricDiff(b.S).Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetIffMinusEmpty(t *testing.T) {
	f := func(a, b genSet) bool {
		return a.S.SubsetOf(b.S) == a.S.Minus(b.S).IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(a, b genSet) bool {
		ab, ba := a.S.Compare(b.S), b.S.Compare(a.S)
		if ab != -ba {
			return false
		}
		return (ab == 0) == a.S.Equal(b.S)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(a, b genSet) bool {
		return (a.S.Key() == b.S.Key()) == a.S.Equal(b.S)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMembersRoundTrip(t *testing.T) {
	f := func(a genSet) bool {
		return FromSlice(a.S.Members()).Equal(a.S)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnion(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomSet(r, 256, 0.3)
	y := randomSet(r, 256, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Union(y)
	}
}

func BenchmarkMembers(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := randomSet(r, 256, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Members()
	}
}

// TestCompareKeyMatchesKeyOrder: CompareKey sorts sets exactly as
// strings.Compare sorts their Keys, across word boundaries and for sets of
// different word counts.
func TestCompareKeyMatchesKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	random := func() Set {
		s := Empty()
		for i, n := 0, r.Intn(6); i < n; i++ {
			s = s.Add(r.Intn(200))
		}
		return s
	}
	for i := 0; i < 5000; i++ {
		a, b := random(), random()
		if got, want := a.CompareKey(b), strings.Compare(a.Key(), b.Key()); got != want {
			t.Fatalf("%v.CompareKey(%v) = %d, key order says %d", a, b, got, want)
		}
		if a.CompareKey(a) != 0 {
			t.Fatalf("%v.CompareKey(itself) != 0", a)
		}
	}
}
