// Package bdms implements the BAD data cluster substrate: a miniature
// big-data management system in the spirit of the AsterixDB+BAD backend the
// paper builds on. It provides
//
//   - datasets with open or closed schema over JSON-model records;
//   - parameterized channels — declarative queries (internal/aql) with
//     $parameters — in both flavors the paper describes: continuous
//     channels that match each incoming publication as it is ingested, and
//     repetitive channels that re-execute every period over newly ingested
//     records;
//   - backend subscriptions: (channel, parameter values) instances that
//     read the timestamped result objects their group's one result log
//     accumulates and invoke a registered callback URL (webhook) whenever
//     new results are produced;
//   - a REST API (server.go) exposing exactly the abstraction Section
//     III-A states the caching layer relies on, and a matching Go client
//     (client.go) used by the broker.
package bdms

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// FieldType is the declared type of a closed-schema field.
type FieldType string

// Supported closed-schema field types (JSON data model).
const (
	TypeString FieldType = "string"
	TypeNumber FieldType = "number"
	TypeBool   FieldType = "bool"
	TypeObject FieldType = "object"
	TypeArray  FieldType = "array"
	TypeAny    FieldType = "any"
)

// Field declares one closed-schema field.
type Field struct {
	Name     string    `json:"name"`
	Type     FieldType `json:"type"`
	Optional bool      `json:"optional,omitempty"`
}

// Schema declares a dataset's record shape. A nil/empty Fields list means
// open schema: any JSON object is accepted (AsterixDB's open datatypes).
// With a closed schema, required fields must be present with the declared
// type; unknown fields are still accepted (open-ended records).
type Schema struct {
	Fields []Field `json:"fields,omitempty"`
}

// Open reports whether the schema accepts arbitrary records.
func (s Schema) Open() bool { return len(s.Fields) == 0 }

// Validate checks rec against the schema.
func (s Schema) Validate(rec map[string]any) error {
	for _, f := range s.Fields {
		v, ok := rec[f.Name]
		if !ok || v == nil {
			if f.Optional {
				continue
			}
			return fmt.Errorf("bdms: missing required field %q", f.Name)
		}
		if err := checkType(f, v); err != nil {
			return err
		}
	}
	return nil
}

func checkType(f Field, v any) error {
	ok := false
	switch f.Type {
	case TypeString:
		_, ok = v.(string)
	case TypeNumber:
		switch v.(type) {
		case float64, float32, int, int32, int64:
			ok = true
		}
	case TypeBool:
		_, ok = v.(bool)
	case TypeObject:
		_, ok = v.(map[string]any)
	case TypeArray:
		_, ok = v.([]any)
	case TypeAny, "":
		ok = true
	default:
		return fmt.Errorf("bdms: field %q has unknown declared type %q", f.Name, f.Type)
	}
	if !ok {
		return fmt.Errorf("bdms: field %q must be %s, got %T", f.Name, f.Type, v)
	}
	return nil
}

// Record is one stored publication: the user payload plus ingest metadata.
type Record struct {
	// Seq is the dataset-wide ingest sequence number (1-based).
	Seq uint64 `json:"seq"`
	// IngestedAt is the cluster-time ingest timestamp.
	IngestedAt time.Duration `json:"ingested_at"`
	// Data is the publication payload. Ingested over REST, its keys and
	// strings that needed no unquoting are substrings of one string copy
	// of the request body, which a batch's records share; a kept string
	// keeps that copy alive (strings.Clone one to hold it alone).
	Data map[string]any `json:"data"`
}

// Dataset stores the records of one publication stream in ingest (Seq)
// order. It is safe for concurrent use.
type Dataset struct {
	name   string
	schema Schema

	mu     sync.RWMutex
	recs   []Record
	nextSq uint64
}

func newDataset(name string, schema Schema) *Dataset {
	return &Dataset{name: name, schema: schema}
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Schema returns the dataset's declared schema.
func (d *Dataset) Schema() Schema { return d.schema }

// insertValidated stores a publication the caller has already validated
// against the schema. The batch ingest path validates whole batches up
// front (atomically) and must not pay per-record re-validation here.
func (d *Dataset) insertValidated(data map[string]any, at time.Duration) Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextSq++
	rec := Record{Seq: d.nextSq, IngestedAt: at, Data: data}
	d.recs = append(d.recs, rec)
	return rec
}

// Len returns the total number of stored records.
func (d *Dataset) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.recs)
}

// ScanSince returns a copy of all records with Seq > afterSeq, ordered by
// Seq. Repetitive channel executions use it to evaluate only newly
// ingested publications.
func (d *Dataset) ScanSince(afterSeq uint64) []Record {
	d.mu.RLock()
	defer d.mu.RUnlock()
	idx := sort.Search(len(d.recs), func(i int) bool { return d.recs[i].Seq > afterSeq })
	return append([]Record(nil), d.recs[idx:]...)
}

// LastSeq returns the highest assigned sequence number.
func (d *Dataset) LastSeq() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nextSq
}
