package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// Wire format: each message is a uvarint total-length prefix followed by the
// message body. Bodies use uvarint/varint fields in a fixed order; the
// payload (Request.Data / Response.Data) is a length-prefixed byte string
// and always the last field, so a message is a small head followed by the
// payload bytes untouched — which is what lets the TCP transport send the
// two with one vectored write and lets the decoders hand out the payload as
// a sub-slice of the message body.
//
// Ownership: a payload is immutable once it is handed to the transport, and
// whoever receives it may keep it. Senders never write to a slice again
// after passing it in Request.Data or Response.Data; receivers (storage
// backends, consumers) retain or share it freely without copying. The
// decoders rely on the same rule from the other side: every message is read
// into a body of its own, and the decoded Data aliases that body.

const maxMessageSize = 64 << 20 // 64 MB, generous for 4 MB chunks

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

type decoder struct {
	b []byte
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("transport: truncated uvarint")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("transport: truncated varint")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) bytes() ([]byte, error) {
	size, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.b)) < size {
		return nil, fmt.Errorf("transport: truncated bytes field")
	}
	out := d.b[:size]
	d.b = d.b[size:]
	return out, nil
}

func (d *decoder) string() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// appendRequestHead serializes everything of req but the payload bytes:
// the fields and the payload's length prefix.
func appendRequestHead(buf []byte, req *Request) []byte {
	buf = append(buf, byte(req.Op))
	buf = appendString(buf, req.Bag)
	buf = appendString(buf, req.Dst)
	buf = binary.AppendVarint(buf, req.Arg)
	return binary.AppendUvarint(buf, uint64(len(req.Data)))
}

// EncodeRequest serializes req, appending to buf.
func EncodeRequest(buf []byte, req *Request) []byte {
	return append(appendRequestHead(buf, req), req.Data...)
}

// DecodeRequest parses a request body. The returned request's Data aliases
// body (see the ownership rule above).
func DecodeRequest(body []byte) (*Request, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("transport: empty request")
	}
	d := &decoder{b: body[1:]}
	req := &Request{Op: Op(body[0])}
	var err error
	if req.Bag, err = d.string(); err != nil {
		return nil, err
	}
	if req.Dst, err = d.string(); err != nil {
		return nil, err
	}
	if req.Arg, err = d.varint(); err != nil {
		return nil, err
	}
	data, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if len(data) > 0 {
		req.Data = data
	}
	return req, nil
}

// appendResponseHead serializes everything of resp but the payload bytes.
func appendResponseHead(buf []byte, resp *Response) []byte {
	buf = binary.AppendUvarint(buf, uint64(resp.Status))
	buf = appendString(buf, resp.Err)
	buf = binary.AppendVarint(buf, resp.TotalChunks)
	buf = binary.AppendVarint(buf, resp.ReadChunks)
	buf = binary.AppendVarint(buf, resp.TotalBytes)
	buf = binary.AppendVarint(buf, resp.ReadBytes)
	if resp.Sealed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(len(resp.Data)))
}

// EncodeResponse serializes resp, appending to buf.
func EncodeResponse(buf []byte, resp *Response) []byte {
	return append(appendResponseHead(buf, resp), resp.Data...)
}

// DecodeResponse parses a response body. The returned response's Data
// aliases body.
func DecodeResponse(body []byte) (*Response, error) {
	d := &decoder{b: body}
	resp := &Response{}
	status, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	resp.Status = int(status)
	if resp.Err, err = d.string(); err != nil {
		return nil, err
	}
	if resp.TotalChunks, err = d.varint(); err != nil {
		return nil, err
	}
	if resp.ReadChunks, err = d.varint(); err != nil {
		return nil, err
	}
	if resp.TotalBytes, err = d.varint(); err != nil {
		return nil, err
	}
	if resp.ReadBytes, err = d.varint(); err != nil {
		return nil, err
	}
	if len(d.b) < 1 {
		return nil, fmt.Errorf("transport: truncated response")
	}
	resp.Sealed = d.b[0] == 1
	d.b = d.b[1:]
	data, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if len(data) > 0 {
		resp.Data = data
	}
	return resp, nil
}

// headRoom is the space a message head leaves in front of itself for the
// message's length prefix, which is only known once the head is encoded.
const headRoom = binary.MaxVarintLen64

// writeMessage writes one length-prefixed message whose body is
// head[headRoom:] followed by payload, and returns the body length. The
// prefix is written into the room in front of the head, and prefix+head and
// the payload go out as one vectored write: the payload is never copied in
// user space, and a message costs one system call.
func writeMessage(c net.Conn, head, payload []byte) (int, error) {
	body := len(head) - headRoom + len(payload)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(body))
	head = head[headRoom-n:]
	copy(head, tmp[:n])
	var err error
	if len(payload) == 0 {
		_, err = c.Write(head)
	} else {
		bufs := net.Buffers{head, payload}
		_, err = bufs.WriteTo(c)
	}
	return body, err
}

// connReadBuffer sizes a connection's read buffer. It only has to hold a
// message's length prefix and head: io.ReadFull of a body larger than the
// buffer reads from the socket straight into the body.
const connReadBuffer = 4 << 10

// readMessage reads a length-prefixed message.
func readMessage(r *bufio.Reader) ([]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > maxMessageSize {
		return nil, fmt.Errorf("transport: message too large (%d bytes)", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
