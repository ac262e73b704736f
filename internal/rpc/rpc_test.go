package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clam/internal/bundle"
	"clam/internal/handle"
	"clam/internal/invoke"
	"clam/internal/xdr"
)

// calcClass is a toy remotely callable class.
type calcClass struct {
	total int64
	log   []string
}

func (c *calcClass) Add(n int64) { c.total += n }

func (c *calcClass) Total() int64 { return c.total }

func (c *calcClass) Div(a, b int64) (int64, error) {
	if b == 0 {
		return 0, errors.New("divide by zero")
	}
	return a / b, nil
}

func (c *calcClass) Scale(factor int64, v *vec) {
	v.X *= factor
	v.Y *= factor
}

func (c *calcClass) Fill(out *vec) {
	out.X, out.Y = 7, 9
}

func (c *calcClass) Record(s string) { c.log = append(c.log, s) }

// NotRemotable takes an unbundlable parameter and must be skipped.
func (c *calcClass) NotRemotable(ch chan int) { _ = ch }

type vec struct{ X, Y int64 }

func compileCalc(t *testing.T, specs map[string]bundle.MethodSpec) (*bundle.Registry, *ClassStubs) {
	t.Helper()
	reg := bundle.NewRegistry()
	cs, err := CompileClass(reg, reflect.TypeOf(&calcClass{}), specs)
	if err != nil {
		t.Fatal(err)
	}
	return reg, cs
}

func TestCompileClassRejectsNonPointer(t *testing.T) {
	reg := bundle.NewRegistry()
	if _, err := CompileClass(reg, reflect.TypeOf(calcClass{}), nil); err == nil {
		t.Error("compiling a non-pointer class type succeeded")
	}
}

func TestCompileClassSkipsUncompilableMethods(t *testing.T) {
	_, cs := compileCalc(t, nil)
	if _, err := cs.Method("NotRemotable"); !errors.Is(err, ErrNoMethod) {
		t.Errorf("err = %v, want ErrNoMethod", err)
	} else if !strings.Contains(err.Error(), "not remotely callable") {
		t.Errorf("skip reason missing: %v", err)
	}
	if _, err := cs.Method("Nope"); !errors.Is(err, ErrNoMethod) {
		t.Errorf("unknown method err = %v", err)
	}
	names := cs.MethodNames()
	for _, n := range names {
		if n == "NotRemotable" {
			t.Error("skipped method listed as callable")
		}
	}
}

func TestAsyncableClassification(t *testing.T) {
	_, cs := compileCalc(t, nil)
	cases := map[string]bool{
		"Add":    true,  // no results, value params
		"Record": true,  // no results
		"Total":  false, // has a result
		"Div":    false, // has results
		"Scale":  false, // inout pointer
		"Fill":   false, // inout pointer (default mode)
	}
	for name, want := range cases {
		m, err := cs.Method(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Asyncable != want {
			t.Errorf("%s.Asyncable = %v, want %v", name, m.Asyncable, want)
		}
	}
}

// invokeViaWire runs one complete server-side stub cycle: encode args the
// way a client would, decode via the stub, invoke, encode the reply
// payload, and return the reply bytes.
func invokeViaWire(t *testing.T, reg *bundle.Registry, st *MethodStub, recv any, args ...any) ([]reflect.Value, *bytes.Buffer) {
	t.Helper()
	ctx := &bundle.Ctx{}
	var wire bytes.Buffer
	enc := xdr.NewEncoder(&wire)
	n := len(args)
	if err := enc.Len(&n); err != nil {
		t.Fatal(err)
	}
	for _, a := range args {
		if err := EncodeValue(reg, ctx, enc, reflect.ValueOf(a)); err != nil {
			t.Fatalf("encode arg: %v", err)
		}
	}
	dec := xdr.NewDecoder(&wire)
	decoded, err := st.DecodeArgs(ctx, dec)
	if err != nil {
		t.Fatalf("decode args: %v", err)
	}
	rets, appErr := st.Invoke(nil, reflect.ValueOf(recv), decoded)
	if appErr != nil {
		t.Fatalf("invoke: %v", appErr)
	}
	var reply bytes.Buffer
	if err := st.EncodeReplyPayload(ctx, xdr.NewEncoder(&reply), decoded, rets); err != nil {
		t.Fatalf("encode reply: %v", err)
	}
	return rets, &reply
}

func TestStubRoundTripSimpleCall(t *testing.T) {
	reg, cs := compileCalc(t, nil)
	c := &calcClass{}
	add, _ := cs.Method("Add")
	invokeViaWire(t, reg, add, c, int64(5))
	invokeViaWire(t, reg, add, c, int64(37))
	if c.total != 42 {
		t.Errorf("total = %d", c.total)
	}
	total, _ := cs.Method("Total")
	rets, _ := invokeViaWire(t, reg, total, c)
	if len(rets) != 1 || rets[0].Int() != 42 {
		t.Errorf("rets = %v", rets)
	}
}

func TestStubWidthConversion(t *testing.T) {
	// Client sends plain int; server parameter is int64.
	reg, cs := compileCalc(t, nil)
	c := &calcClass{}
	add, _ := cs.Method("Add")
	invokeViaWire(t, reg, add, c, 31) // int, not int64
	if c.total != 31 {
		t.Errorf("total = %d", c.total)
	}
}

func TestStubApplicationError(t *testing.T) {
	reg, cs := compileCalc(t, nil)
	div, _ := cs.Method("Div")
	ctx := &bundle.Ctx{}
	var wire bytes.Buffer
	enc := xdr.NewEncoder(&wire)
	n := 2
	enc.Len(&n)
	EncodeValue(reg, ctx, enc, reflect.ValueOf(int64(1)))
	EncodeValue(reg, ctx, enc, reflect.ValueOf(int64(0)))
	args, err := div.DecodeArgs(ctx, xdr.NewDecoder(&wire))
	if err != nil {
		t.Fatal(err)
	}
	_, appErr := div.Invoke(nil, reflect.ValueOf(&calcClass{}), args)
	if appErr == nil || appErr.Error() != "divide by zero" {
		t.Errorf("appErr = %v", appErr)
	}
}

func TestInOutPointerTravelsBack(t *testing.T) {
	reg, cs := compileCalc(t, nil)
	scale, _ := cs.Method("Scale")
	ctx := &bundle.Ctx{}
	_, reply := invokeViaWire(t, reg, scale, &calcClass{}, int64(3), &vec{X: 2, Y: 5})

	// The reply payload must carry the mutated pointee for parameter 1.
	dec := xdr.NewDecoder(reply)
	var outc int
	if err := dec.Len(&outc); err != nil {
		t.Fatal(err)
	}
	if outc != 1 {
		t.Fatalf("outc = %d, want 1", outc)
	}
	var idx uint32
	dec.Uint32(&idx)
	if idx != 1 {
		t.Errorf("out param index = %d, want 1", idx)
	}
	var present bool
	dec.Bool(&present)
	if !present {
		t.Fatal("out param absent")
	}
	var got vec
	if err := DecodeValue(reg, ctx, dec, reflect.ValueOf(&got).Elem()); err != nil {
		t.Fatal(err)
	}
	if got.X != 6 || got.Y != 15 {
		t.Errorf("scaled vec = %+v", got)
	}
}

func TestOutModeAllocatesNilPointer(t *testing.T) {
	specs := map[string]bundle.MethodSpec{
		"Fill": {Params: []*bundle.ParamSpec{{Mode: bundle.Out}}},
	}
	reg, cs := compileCalc(t, specs)
	fill, _ := cs.Method("Fill")
	// Client passes nil for the pure-out parameter: no data travels down.
	_, reply := invokeViaWire(t, reg, fill, &calcClass{}, (*vec)(nil))
	dec := xdr.NewDecoder(reply)
	var outc int
	dec.Len(&outc)
	if outc != 1 {
		t.Fatalf("outc = %d", outc)
	}
	var idx uint32
	dec.Uint32(&idx)
	var present bool
	dec.Bool(&present)
	if !present {
		t.Fatal("allocated out param not returned")
	}
	var got vec
	if err := DecodeValue(reg, &bundle.Ctx{}, dec, reflect.ValueOf(&got).Elem()); err != nil {
		t.Fatal(err)
	}
	if got.X != 7 || got.Y != 9 {
		t.Errorf("filled vec = %+v", got)
	}
}

func TestInModeSuppressesReplyCopy(t *testing.T) {
	specs := map[string]bundle.MethodSpec{
		"Scale": {Params: []*bundle.ParamSpec{nil, {Mode: bundle.In}}},
	}
	reg, cs := compileCalc(t, specs)
	scale, _ := cs.Method("Scale")
	_, reply := invokeViaWire(t, reg, scale, &calcClass{}, int64(2), &vec{X: 1, Y: 1})
	dec := xdr.NewDecoder(reply)
	var outc int
	dec.Len(&outc)
	if outc != 0 {
		t.Errorf("const pointer produced %d out params", outc)
	}
}

func TestDecodeArgsArityMismatch(t *testing.T) {
	reg, cs := compileCalc(t, nil)
	add, _ := cs.Method("Add")
	ctx := &bundle.Ctx{}
	var wire bytes.Buffer
	enc := xdr.NewEncoder(&wire)
	n := 2
	enc.Len(&n)
	EncodeValue(reg, ctx, enc, reflect.ValueOf(int64(1)))
	EncodeValue(reg, ctx, enc, reflect.ValueOf(int64(2)))
	if _, err := add.DecodeArgs(ctx, xdr.NewDecoder(&wire)); err == nil {
		t.Error("arity mismatch not detected")
	}
}

func TestKindMismatchDetected(t *testing.T) {
	reg, cs := compileCalc(t, nil)
	add, _ := cs.Method("Add")
	ctx := &bundle.Ctx{}
	var wire bytes.Buffer
	enc := xdr.NewEncoder(&wire)
	n := 1
	enc.Len(&n)
	EncodeValue(reg, ctx, enc, reflect.ValueOf("not a number"))
	_, err := add.DecodeArgs(ctx, xdr.NewDecoder(&wire))
	if !errors.Is(err, ErrKindMismatch) {
		t.Errorf("err = %v, want ErrKindMismatch", err)
	}
	if !strings.Contains(err.Error(), "string") || !strings.Contains(err.Error(), "signed") {
		t.Errorf("mismatch error lacks kind names: %v", err)
	}
}

func TestEncodeArgsMatchesDecodeArgs(t *testing.T) {
	_, cs := compileCalc(t, nil)
	scale, _ := cs.Method("Scale")
	ctx := &bundle.Ctx{}
	var wire bytes.Buffer
	args := []reflect.Value{reflect.ValueOf(int64(4)), reflect.ValueOf(&vec{X: 1, Y: 2})}
	if err := scale.EncodeArgs(ctx, xdr.NewEncoder(&wire), args); err != nil {
		t.Fatal(err)
	}
	decoded, err := scale.DecodeArgs(ctx, xdr.NewDecoder(&wire))
	if err != nil {
		t.Fatal(err)
	}
	if decoded[0].Int() != 4 || decoded[1].Interface().(*vec).Y != 2 {
		t.Errorf("decoded = %v", decoded)
	}
}

func TestCallHeaderRoundTrip(t *testing.T) {
	want := CallHeader{Seq: 9, Obj: handle.Handle{ID: 3, Tag: 0xbeef}, Method: "Move"}
	var buf bytes.Buffer
	h := want
	if err := h.Bundle(xdr.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	var got CallHeader
	if err := got.Bundle(xdr.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("got %+v want %+v", got, want)
	}
}

func TestReplyHeaderRoundTrip(t *testing.T) {
	for _, want := range []ReplyHeader{
		{Status: StatusOK},
		{Status: StatusAppError, ErrMsg: "boom"},
		{Status: StatusFault, ErrMsg: "segv"},
		{Status: StatusDispatch, ErrMsg: "no method"},
	} {
		var buf bytes.Buffer
		h := want
		if err := h.Bundle(xdr.NewEncoder(&buf)); err != nil {
			t.Fatal(err)
		}
		var got ReplyHeader
		if err := got.Bundle(xdr.NewDecoder(&buf)); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("got %+v want %+v", got, want)
		}
		if want.Status == StatusOK && got.Err() != nil {
			t.Errorf("OK header produced error %v", got.Err())
		}
		if want.Status != StatusOK {
			var re *RemoteError
			if !errors.As(got.Err(), &re) || re.Msg != want.ErrMsg {
				t.Errorf("Err() = %v", got.Err())
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	if StatusOK.String() != "ok" || !strings.Contains(Status(77).String(), "77") {
		t.Errorf("status names: %v %v", StatusOK, Status(77))
	}
}

func TestFuncArgsRoundTrip(t *testing.T) {
	reg := bundle.NewRegistry()
	ctx := &bundle.Ctx{}
	ft := reflect.TypeOf(func(int32, string, vec) {})
	args := []reflect.Value{
		reflect.ValueOf(int32(3)),
		reflect.ValueOf("event"),
		reflect.ValueOf(vec{X: 1, Y: 2}),
	}
	var buf bytes.Buffer
	if err := EncodeFuncArgs(reg, ctx, xdr.NewEncoder(&buf), ft, args); err != nil {
		t.Fatal(err)
	}
	f := invoke.Compile(ft, 0).Frame()
	defer f.Release()
	got := f.Args()
	if err := DecodeFuncArgs(reg, ctx, xdr.NewDecoder(&buf), got); err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 3 || got[1].String() != "event" || got[2].Interface().(vec).Y != 2 {
		t.Errorf("decoded = %v", got)
	}
}

func TestFuncArgsArityChecked(t *testing.T) {
	reg := bundle.NewRegistry()
	ctx := &bundle.Ctx{}
	ft := reflect.TypeOf(func(int32) {})
	var buf bytes.Buffer
	err := EncodeFuncArgs(reg, ctx, xdr.NewEncoder(&buf), ft, nil)
	if err == nil {
		t.Error("wrong arity encoded")
	}
	// Decode side: encode for a 2-arg func, decode for a 1-arg func.
	ft2 := reflect.TypeOf(func(int32, int32) {})
	args := []reflect.Value{reflect.ValueOf(int32(1)), reflect.ValueOf(int32(2))}
	if err := EncodeFuncArgs(reg, ctx, xdr.NewEncoder(&buf), ft2, args); err != nil {
		t.Fatal(err)
	}
	if err := DecodeFuncArgs(reg, ctx, xdr.NewDecoder(&buf), invoke.Compile(ft, 0).Frame().Args()); err == nil {
		t.Error("arity mismatch not detected on decode")
	}
}

func TestFuncResultsRoundTrip(t *testing.T) {
	reg := bundle.NewRegistry()
	ctx := &bundle.Ctx{}
	ft := reflect.TypeOf(func() (int64, string, error) { return 0, "", nil })
	rets := []reflect.Value{
		reflect.ValueOf(int64(10)),
		reflect.ValueOf("done"),
	}
	var buf bytes.Buffer
	if err := EncodeFuncResults(reg, ctx, xdr.NewEncoder(&buf), rets, nil); err != nil {
		t.Fatal(err)
	}
	got, appErr, err := DecodeFuncResults(reg, ctx, xdr.NewDecoder(&buf), ft)
	if err != nil || appErr != nil {
		t.Fatalf("err=%v appErr=%v", err, appErr)
	}
	if got[0].Int() != 10 || got[1].String() != "done" {
		t.Errorf("results = %v", got)
	}
}

func TestFuncResultsCarryAppError(t *testing.T) {
	reg := bundle.NewRegistry()
	ctx := &bundle.Ctx{}
	ft := reflect.TypeOf(func() error { return nil })
	var buf bytes.Buffer
	if err := EncodeFuncResults(reg, ctx, xdr.NewEncoder(&buf), nil, errors.New("handler failed")); err != nil {
		t.Fatal(err)
	}
	_, appErr, err := DecodeFuncResults(reg, ctx, xdr.NewDecoder(&buf), ft)
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if !errors.As(appErr, &re) || re.Msg != "handler failed" {
		t.Errorf("appErr = %v", appErr)
	}
}

func TestKindOfClassifications(t *testing.T) {
	cases := []struct {
		v    any
		want Kind
	}{
		{int8(1), KindSigned},
		{uint16(1), KindUnsigned},
		{1.5, KindFloat},
		{true, KindBool},
		{"s", KindString},
		{[]byte{1}, KindBytes},
		{[]int32{1}, KindSlice},
		{map[string]int32{}, KindMap},
		{vec{}, KindStruct},
		{&vec{}, KindPtr},
		{[2]int32{}, KindArray},
		{func() {}, KindProc},
	}
	for _, c := range cases {
		if got := KindOf(reflect.TypeOf(c.v), nil); got != c.want {
			t.Errorf("KindOf(%T) = %v, want %v", c.v, got, c.want)
		}
	}
	if KindOf(reflect.TypeOf(make(chan int)), nil) != 0 {
		t.Error("chan classified")
	}
	if !strings.Contains(Kind(99).String(), "99") || KindHandle.String() != "object-handle" {
		t.Errorf("kind names: %v %v", Kind(99), KindHandle)
	}
}

func TestUpcallHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := UpcallHeader{ProcID: 1234}
	if err := h.Bundle(xdr.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	var got UpcallHeader
	if err := got.Bundle(xdr.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("got %+v", got)
	}
}

func TestRemoteErrorMessage(t *testing.T) {
	e := &RemoteError{Status: StatusFault, Msg: "class died"}
	if !strings.Contains(e.Error(), "fault") || !strings.Contains(e.Error(), "class died") {
		t.Errorf("message: %v", e)
	}
}

func ExampleCompileClass() {
	reg := bundle.NewRegistry()
	cs, _ := CompileClass(reg, reflect.TypeOf(&calcClass{}), nil)
	m, _ := cs.Method("Div")
	fmt.Println(m.Name, len(m.Args), m.HasErr)
	// Output: Div 2 true
}
