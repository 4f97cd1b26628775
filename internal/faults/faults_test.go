package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestCanceledLiveContext(t *testing.T) {
	if err := Canceled(context.Background()); err != nil {
		t.Fatalf("live context reported canceled: %v", err)
	}
}

func TestCanceledDoneContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Canceled(ctx)
	if err == nil {
		t.Fatal("done context not reported")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("missing ErrCanceled in chain: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("missing context.Canceled in chain: %v", err)
	}
}

func TestIsCancellation(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("boom"), false},
		{ErrCanceled, true},
		{fmt.Errorf("stage: %w", ErrCanceled), true},
		{context.Canceled, true},
		{context.DeadlineExceeded, true},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), true},
		{ErrUnroutable, false},
	}
	for _, c := range cases {
		if got := IsCancellation(c.err); got != c.want {
			t.Errorf("IsCancellation(%v) = %v want %v", c.err, got, c.want)
		}
	}
}
