// Package ml is a from-scratch substitute for the Weka toolkit the paper
// uses (§3): a shared attribute/instance model plus the classifiers the
// experiments need — Naive Bayes, a C4.5-style decision tree ("J48"),
// Random Forest, multinomial Logistic regression, and ε-SVR for the raw
// forecasting baseline. A key claim of the paper is that symbolic data works
// with any algorithm supporting nominal values; this package's dataset model
// treats nominal and numeric attributes uniformly so every classifier runs
// on both raw and symbolic encodings.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Kind distinguishes numeric from nominal attributes.
type Kind int

const (
	// Numeric attributes hold real values.
	Numeric Kind = iota
	// Nominal attributes hold an index into a fixed category list.
	Nominal
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Nominal:
		return "nominal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one feature column.
type Attribute struct {
	Name string
	Kind Kind
	// Values lists the categories of a nominal attribute; empty for numeric.
	Values []string
}

// NumValues returns the number of categories of a nominal attribute.
func (a Attribute) NumValues() int { return len(a.Values) }

// NumericAttr is a convenience constructor.
func NumericAttr(name string) Attribute { return Attribute{Name: name, Kind: Numeric} }

// NominalAttr is a convenience constructor.
func NominalAttr(name string, values []string) Attribute {
	return Attribute{Name: name, Kind: Nominal, Values: values}
}

// Schema is the attribute layout plus the class labels of a dataset.
type Schema struct {
	Attrs   []Attribute
	Classes []string
}

// NewSchema validates and returns a schema.
func NewSchema(attrs []Attribute, classes []string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, errors.New("ml: schema needs at least one attribute")
	}
	if len(classes) < 2 {
		return nil, errors.New("ml: schema needs at least two classes")
	}
	for i, a := range attrs {
		if a.Kind == Nominal && len(a.Values) < 1 {
			return nil, fmt.Errorf("ml: nominal attribute %d (%s) has no values", i, a.Name)
		}
	}
	return &Schema{Attrs: attrs, Classes: classes}, nil
}

// NumAttrs returns the number of feature columns.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// NumClasses returns the number of class labels.
func (s *Schema) NumClasses() int { return len(s.Classes) }

// Instance is one example: feature vector plus class index. For nominal
// attributes X[i] is the category index; for numeric attributes the value.
// NaN marks a missing value.
type Instance struct {
	X     []float64
	Class int
}

// Dataset is a list of instances under a schema.
type Dataset struct {
	Schema    *Schema
	Instances []Instance
}

// NewDataset returns an empty dataset over the schema.
func NewDataset(schema *Schema) *Dataset { return &Dataset{Schema: schema} }

// Add validates and appends an instance.
func (d *Dataset) Add(x []float64, class int) error {
	if len(x) != d.Schema.NumAttrs() {
		return fmt.Errorf("ml: instance has %d attributes, schema wants %d", len(x), d.Schema.NumAttrs())
	}
	if class < 0 || class >= d.Schema.NumClasses() {
		return fmt.Errorf("ml: class %d out of range [0,%d)", class, d.Schema.NumClasses())
	}
	for i, v := range x {
		a := d.Schema.Attrs[i]
		if a.Kind == Nominal && !math.IsNaN(v) {
			idx := int(v)
			if float64(idx) != v || idx < 0 || idx >= a.NumValues() {
				return fmt.Errorf("ml: attribute %d (%s): nominal index %v out of range [0,%d)",
					i, a.Name, v, a.NumValues())
			}
		}
	}
	d.Instances = append(d.Instances, Instance{X: x, Class: class})
	return nil
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Instances) }

// ClassCounts tallies instances per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Schema.NumClasses())
	for _, in := range d.Instances {
		counts[in.Class]++
	}
	return counts
}

// Subset returns a dataset view containing the instances at the given
// indices (instances are shared, not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := NewDataset(d.Schema)
	out.Instances = make([]Instance, len(idx))
	for i, j := range idx {
		out.Instances[i] = d.Instances[j]
	}
	return out
}

// Classifier is the interface every model implements.
type Classifier interface {
	// Fit trains on the dataset.
	Fit(d *Dataset) error
	// Predict returns the predicted class index for a feature vector.
	Predict(x []float64) int
}

// ErrNotFitted reports prediction before training.
var ErrNotFitted = errors.New("ml: model not fitted")

// ErrEmptyTrainingSet reports fitting on no instances.
var ErrEmptyTrainingSet = errors.New("ml: empty training set")
