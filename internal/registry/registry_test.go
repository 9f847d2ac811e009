package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
)

var (
	errDup     = errors.New("test: duplicate")
	errUnknown = errors.New("test: unknown")
)

func TestRegisterAndGet(t *testing.T) {
	r := New[int](errDup, errUnknown)
	if err := r.Register("a", 1); err != nil {
		t.Fatal(err)
	}
	v, err := r.Get("a")
	if err != nil || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, nil", v, err)
	}
}

func TestRegisterRejectsEmptyName(t *testing.T) {
	r := New[int](errDup, errUnknown)
	err := r.Register("", 1)
	if !errors.Is(err, ErrEmptyName) {
		t.Fatalf("empty name err = %v, want ErrEmptyName", err)
	}
	if errors.Is(err, errDup) {
		t.Fatalf("empty name err %v must not classify as a duplicate", err)
	}
	if names := r.Names(); len(names) != 0 {
		t.Fatalf("rejected entry registered: %v", names)
	}
}

func TestRegisterDuplicateWrapsSentinel(t *testing.T) {
	r := New[int](errDup, errUnknown)
	if err := r.Register("a", 1); err != nil {
		t.Fatal(err)
	}
	err := r.Register("a", 2)
	if !errors.Is(err, errDup) {
		t.Fatalf("duplicate err = %v, want it to wrap %v", err, errDup)
	}
	if v, _ := r.Get("a"); v != 1 {
		t.Fatalf("duplicate overwrote the first entry: got %d", v)
	}
}

func TestGetUnknownWrapsSentinel(t *testing.T) {
	r := New[string](errDup, errUnknown)
	v, err := r.Get("missing")
	if !errors.Is(err, errUnknown) {
		t.Fatalf("unknown err = %v, want it to wrap %v", err, errUnknown)
	}
	if v != "" {
		t.Fatalf("unknown lookup returned %q, want the zero value", v)
	}
}

func TestNamesSorted(t *testing.T) {
	r := New[int](errDup, errUnknown)
	for i, name := range []string{"swap", "anneal", "nesterov", "mcmf"} {
		if err := r.Register(name, i); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Names()
	want := []string{"anneal", "mcmf", "nesterov", "swap"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	got[0] = "mutated"
	if r.Names()[0] != "anneal" {
		t.Fatal("Names() shares its slice with the registry")
	}
}

// TestConcurrentRegisterAndGet registers disjoint names from several
// goroutines while others read; under -race it checks the locking, and
// afterwards every name must be present exactly once.
func TestConcurrentRegisterAndGet(t *testing.T) {
	r := New[int](errDup, errUnknown)
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := r.Register(fmt.Sprintf("w%d-%03d", w, i), w*perWriter+i); err != nil {
					t.Error(err)
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if v, err := r.Get(fmt.Sprintf("w%d-%03d", w, i)); err == nil && v != w*perWriter+i {
					t.Errorf("Get returned %d for entry %d of writer %d", v, i, w)
				}
				r.Names()
			}
		}(w)
	}
	wg.Wait()
	names := r.Names()
	if len(names) != writers*perWriter || !sort.StringsAreSorted(names) {
		t.Fatalf("after concurrent registration: %d names (want %d), sorted=%v",
			len(names), writers*perWriter, sort.StringsAreSorted(names))
	}
}
