package transport

import (
	"reflect"
	"testing"
	"unsafe"
)

// within reports whether sub lies inside the backing array of body.
func within(sub, body []byte) bool {
	if len(sub) == 0 {
		return true
	}
	if len(body) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(&body[0])), uintptr(unsafe.Pointer(&body[0]))+uintptr(len(body))
	p := uintptr(unsafe.Pointer(&sub[0]))
	return p >= lo && p+uintptr(len(sub)) <= hi
}

// FuzzDecodeRequest: the request decoder faces the network. It must never
// panic, the Data it hands out must be a sub-slice of the body it was given
// (the zero-copy contract: nothing else may be aliased, and nothing copied),
// and whatever it accepts must survive an encode/decode round trip.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(EncodeRequest(nil, &Request{Op: OpInsert, Bag: "b#0", Data: []byte("chunk")}))
	f.Add(EncodeRequest(nil, &Request{Op: OpSketch, Bag: "e", Dst: "t/w0@e0", Arg: 7, Data: []byte{1, 0, 0}}))
	f.Add(EncodeRequest(nil, &Request{Op: OpReadAt, Bag: "e!pmap#1", Arg: -3}))
	f.Add([]byte{})
	f.Add([]byte{byte(OpInsert), 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(body)
		if err != nil {
			return
		}
		if !within(req.Data, body) {
			t.Fatalf("decoded Data (%d bytes) is not inside the %d-byte body", len(req.Data), len(body))
		}
		again, err := DecodeRequest(EncodeRequest(nil, req))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, again)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the client side of the wire.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(EncodeResponse(nil, &Response{Status: StatusOK, Data: []byte("chunk"), ReadChunks: 3, Sealed: true}))
	f.Add(EncodeResponse(nil, &Response{Status: StatusErr, Err: "storage: insert into sealed bag"}))
	f.Add(EncodeResponse(nil, &Response{Status: StatusAgain, TotalChunks: -1, TotalBytes: 1 << 40}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := DecodeResponse(body)
		if err != nil {
			return
		}
		if !within(resp.Data, body) {
			t.Fatalf("decoded Data (%d bytes) is not inside the %d-byte body", len(resp.Data), len(body))
		}
		again, err := DecodeResponse(EncodeResponse(nil, resp))
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("round trip changed the response: %+v -> %+v", resp, again)
		}
	})
}
