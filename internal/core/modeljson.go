package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file gives performance models a stable JSON form, so a model
// library can be shared between analysts independently of this codebase —
// the paper's reusability requirement (R2) applied to the models
// themselves, and the substrate for its envisioned "larger library of
// comprehensive performance models".

// modelJSONVersion identifies the model schema.
const modelJSONVersion = 1

type modelFile struct {
	Version     int            `json:"version"`
	Platform    string         `json:"platform"`
	Description string         `json:"description,omitempty"`
	Root        *OperationSpec `json:"root"`
}

// MarshalJSON implements json.Marshaler with the versioned envelope.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelFile{
		Version:     modelJSONVersion,
		Platform:    m.Platform,
		Description: m.Description,
		Root:        m.Root,
	})
}

// UnmarshalJSON implements json.Unmarshaler; the decoded model is NOT
// validated (LoadModelJSON does).
func (m *Model) UnmarshalJSON(data []byte) error {
	var f modelFile
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	if f.Version != modelJSONVersion {
		return fmt.Errorf("core: unsupported model version %d", f.Version)
	}
	m.Platform = f.Platform
	m.Description = f.Description
	m.Root = f.Root
	return nil
}

// SaveJSON writes the model as indented JSON.
func (m *Model) SaveJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// LoadModelJSON reads and validates a model from JSON.
func LoadModelJSON(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
