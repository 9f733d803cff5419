package workpool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEveryIndexOnce: every index runs exactly once at any width,
// including widths above n, and an empty list returns at once.
func TestEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 10, 100} {
		for _, width := range []int{1, 3, 16} {
			counts := make([]atomic.Int32, n)
			var workers atomic.Int32
			err := Run(context.Background(), n, width, func() func(int) error {
				workers.Add(1)
				return func(i int) error {
					counts[i].Add(1)
					return nil
				}
			})
			if err != nil {
				t.Fatalf("n=%d width=%d: %v", n, width, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d width=%d: index %d ran %d times", n, width, i, c)
				}
			}
			if w := int(workers.Load()); w > min(width, n) {
				t.Fatalf("n=%d width=%d: %d goroutines started", n, width, w)
			}
		}
	}
}

// TestLowestIndexedErrorWins: with several failing indices racing at
// width 8, Run reports the lowest one — the sequential answer.
func TestLowestIndexedErrorWins(t *testing.T) {
	failing := map[int]bool{17: true, 40: true, 63: true, 90: true}
	for trial := 0; trial < 20; trial++ {
		err := Run(context.Background(), 100, 8, func() func(int) error {
			return func(i int) error {
				if failing[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			}
		})
		if err == nil || err.Error() != "index 17" {
			t.Fatalf("trial %d: error = %v, want index 17", trial, err)
		}
	}
}

// TestNoClaimAfterFailure: at width 1 the pool is a sequential loop, so
// nothing past the failing index runs.
func TestNoClaimAfterFailure(t *testing.T) {
	var ran []int
	boom := errors.New("boom")
	err := Run(context.Background(), 10, 1, func() func(int) error {
		return func(i int) error {
			ran = append(ran, i)
			if i == 4 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if len(ran) != 5 || ran[4] != 4 {
		t.Fatalf("ran %v, want indices 0..4 only", ran)
	}
}

// TestCancelStopsClaiming: cancelling ctx mid-run lets in-flight calls
// finish, claims nothing new, and surfaces the cancellation.
func TestCancelStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	ran := 0
	err := Run(ctx, 1000, 4, func() func(int) error {
		return func(i int) error {
			mu.Lock()
			defer mu.Unlock()
			ran++
			if ran == 10 {
				cancel()
			}
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// At most one in-flight call per goroutine can follow the cancel.
	if ran < 10 || ran > 10+4 {
		t.Fatalf("%d calls ran after cancelling at the 10th", ran)
	}
}
