package invoke

import (
	"errors"
	"reflect"
	"testing"
)

func TestCompileFindsTrailingError(t *testing.T) {
	if p := Compile(reflect.TypeOf(func(int64, string) (int32, error) { return 0, nil }), 0); !p.HasErr {
		t.Error("trailing error result not recognised")
	}
	if p := Compile(reflect.TypeOf(func() int32 { return 0 }), 0); p.HasErr {
		t.Error("func() int32 reported as returning an error")
	}
}

func TestCallFromCellsAndFromValues(t *testing.T) {
	boom := errors.New("boom")
	fn := reflect.ValueOf(func(scale, x int64, fail bool) (int64, error) {
		if fail {
			return 0, boom
		}
		return scale * x, nil
	})
	p := Compile(fn.Type(), 1) // scale is supplied per call, like a receiver
	f := p.Frame()
	f.Args()[0].SetInt(7)
	rets, err := f.Call(fn, reflect.ValueOf(int64(3)))
	if err != nil || len(rets) != 1 || rets[0].Int() != 21 {
		t.Fatalf("call from cells: %v %v", rets, err)
	}
	f.Set([]reflect.Value{reflect.ValueOf(int64(5)), reflect.ValueOf(true)})
	if _, err := f.Call(fn, reflect.ValueOf(int64(3))); err != boom {
		t.Fatalf("call from values: err %v, want boom", err)
	}
	f.Release()
}

// Release zeroes every cell, so the next user of the frame decodes into nil
// slices and empty strings and must allocate fresh storage: what a
// procedure kept from an earlier call is never written again.
func TestReleaseZeroesCells(t *testing.T) {
	var kept []byte
	fn := reflect.ValueOf(func(b []byte, s string) { kept = b })
	p := Compile(fn.Type(), 0)

	f := p.Frame()
	f.Args()[0].SetBytes([]byte("retained"))
	f.Args()[1].SetString("name")
	if _, err := f.Call(fn); err != nil {
		t.Fatal(err)
	}
	f.Release()

	g := p.Frame() // the same frame, or a new one: either way it must be blank
	defer g.Release()
	if !g.Args()[0].IsNil() || g.Args()[1].String() != "" {
		t.Errorf("frame from the pool still holds %v %q", g.Args()[0], g.Args()[1])
	}
	if string(kept) != "retained" {
		t.Errorf("retained argument changed: %q", kept)
	}
	// After Set, Release must also put the cells back in the call list.
	g.Set([]reflect.Value{reflect.ValueOf([]byte("other")), reflect.ValueOf("x")})
	g.Release()
	h := p.Frame()
	h.Args()[0].SetBytes([]byte("cell"))
	if _, err := h.Call(fn); err != nil || string(kept) != "cell" {
		t.Errorf("call after Set+Release passed %q, want the cell's value", kept)
	}
	h.Release()
}
