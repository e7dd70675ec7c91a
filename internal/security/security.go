// Package security holds gocad's run-time IP-protection mechanisms: the
// marshalling policy that bounds what may cross the user/provider
// boundary (only information available at a component's own ports) and
// the session authentication keys. The confinement of downloaded public
// parts (the Java-2 security manager of the paper) is static: the
// capability analyzer in internal/lint/capability rejects any sandboxed
// package that imports or reaches the file system, the network or the
// wall clock, and nothing relaxes it at run time.
package security

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
)

// Key is a shared session secret between an IP user and an IP provider.
type Key []byte

// NewKey returns a fresh 32-byte random key.
func NewKey() (Key, error) {
	k := make([]byte, 32)
	if _, err := rand.Read(k); err != nil {
		return nil, err
	}
	return k, nil
}

// Tag computes the HMAC-SHA256 authentication tag of a message under the
// key, hex encoded.
func (k Key) Tag(msg []byte) string {
	h := hmac.New(sha256.New, k)
	h.Write(msg)
	return hex.EncodeToString(h.Sum(nil))
}

// Verify checks an authentication tag in constant time.
func (k Key) Verify(msg []byte, tag string) bool {
	want, err := hex.DecodeString(tag)
	if err != nil {
		return false
	}
	h := hmac.New(sha256.New, k)
	h.Write(msg)
	return hmac.Equal(h.Sum(nil), want)
}
