package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// Decode strictly decodes raw, which must hold exactly one JSON value,
// into v: unknown fields are errors, and so is anything but whitespace
// after the value — a second document, a stray "}" or "]", or garbage.
// Every surface that accepts JSON from the network decodes with it.
func Decode(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Token, unlike More, also fails on a closing delimiter with no
	// opener, so only a clean EOF passes.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
