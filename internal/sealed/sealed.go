// Package sealed implements the second related-work IP-protection
// baseline the paper discusses: MODEL ENCRYPTION. The provider ships an
// accurate simulation model encrypted under a key; the user "links" it
// into the simulator and runs it locally. The sealed model exposes
// functionality only — the structural view stays inside the package.
//
// The paper's critique, which the tests make concrete:
//
//   - the decryption key must exist on the user's machine for the model
//     to run at all, so confidentiality rests on obfuscation of the key
//     rather than on a server boundary (here the key is an explicit
//     argument — the honest rendering of that weakness);
//   - only what is in the shipped model can ever be evaluated: accurate
//     power or testability need the structural view, which a sealed
//     functional model deliberately does not expose, whereas virtual
//     simulation serves them from the provider's server.
//
// Mechanically: the netlist snapshot (gate.Netlist.MarshalBinary) is
// encrypted with AES-256-GCM; Open authenticates and decrypts it into an
// evaluator whose API is evaluation-only.
package sealed

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"

	"repro/internal/gate"
	"repro/internal/signal"
)

// Model is an encrypted simulation model as shipped to the user.
type Model struct {
	// ComponentName is public catalogue metadata.
	ComponentName string
	// Nonce and Ciphertext carry the sealed netlist snapshot.
	Nonce      []byte
	Ciphertext []byte
}

// Seal encrypts a component's netlist under a 32-byte key.
func Seal(nl *gate.Netlist, key []byte) (*Model, error) {
	blob, err := nl.MarshalBinary()
	if err != nil {
		return nil, err
	}
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return &Model{
		ComponentName: nl.Name,
		Nonce:         nonce,
		Ciphertext:    gcm.Seal(nil, nonce, blob, []byte(nl.Name)),
	}, nil
}

// Evaluator is the user-side view of an opened model: functionality only.
// There is deliberately no way to reach the netlist, its gates, its nets,
// or per-net activity — which is precisely why this baseline cannot serve
// accurate power estimation or detection tables.
type Evaluator struct {
	ev   *gate.LaneEvaluator
	name string
}

// Open authenticates and decrypts a sealed model. It fails on a wrong key
// or tampered ciphertext.
func Open(m *Model, key []byte) (*Evaluator, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(m.Nonce) != gcm.NonceSize() {
		return nil, errors.New("sealed: malformed nonce")
	}
	blob, err := gcm.Open(nil, m.Nonce, m.Ciphertext, []byte(m.ComponentName))
	if err != nil {
		return nil, fmt.Errorf("sealed: open %s: %w", m.ComponentName, err)
	}
	nl := gate.NewNetlist("")
	if err := nl.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	ev, err := nl.NewLaneEvaluator()
	if err != nil {
		return nil, err
	}
	return &Evaluator{ev: ev, name: m.ComponentName}, nil
}

// Name returns the component's catalogue name.
func (e *Evaluator) Name() string { return e.name }

// Eval evaluates the model functionally, one pattern per one-lane
// batch.
func (e *Evaluator) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	return e.ev.Eval(inputs)
}

func newGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("sealed: key must be 32 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}
