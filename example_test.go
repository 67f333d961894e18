package pmemcpy_test

import (
	"errors"
	"fmt"
	"log"

	"pmemcpy"
)

// Example reproduces the paper's Figure 3: each of four processes writes 100
// doubles to non-overlapping offsets of a shared 1-D array in node-local
// PMEM.
func Example() {
	node := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 256<<20)
	_, err := pmemcpy.Run(node, 4, func(c *pmemcpy.Comm) error {
		pmem, err := pmemcpy.Mmap(c, node, "/example.pool")
		if err != nil {
			return err
		}
		count := uint64(100)
		off := count * uint64(c.Rank())
		dimsf := count * uint64(c.Size())

		data := make([]float64, count)
		for i := range data {
			data[i] = float64(off) + float64(i)
		}
		if err := pmemcpy.Alloc[float64](pmem, "A", dimsf); err != nil {
			return err
		}
		if err := pmemcpy.StoreSub(pmem, "A", data, []uint64{off}, []uint64{count}); err != nil {
			return err
		}
		return pmem.Munmap()
	})
	if err != nil {
		log.Fatal(err)
	}

	// Read the dimensions back (stored automatically under "A#dims").
	_, err = pmemcpy.Run(node, 1, func(c *pmemcpy.Comm) error {
		pmem, err := pmemcpy.Mmap(c, node, "/example.pool")
		if err != nil {
			return err
		}
		dims, err := pmemcpy.LoadDims(pmem, "A")
		if err != nil {
			return err
		}
		fmt.Println("dims:", dims)
		return pmem.Munmap()
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: dims: [400]
}

// ExampleStore shows the scalar key-value interface.
func ExampleStore() {
	node := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
	_, err := pmemcpy.Run(node, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, node, "/kv.pool")
		if err != nil {
			return err
		}
		if err := pmemcpy.Store(p, "timestep", int64(128)); err != nil {
			return err
		}
		v, err := pmemcpy.Load[int64](p, "timestep")
		if err != nil {
			return err
		}
		fmt.Println("timestep:", v)
		return p.Munmap()
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: timestep: 128
}

// ExampleStoreStruct persists a nested structure with dynamically sized
// arrays — the compound-type shape the paper notes HDF5 cannot express.
func ExampleStoreStruct() {
	type Sensor struct {
		Name     string
		Readings []float64
	}
	type Station struct {
		ID      uint64
		Sensors []Sensor
	}
	node := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
	_, err := pmemcpy.Run(node, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, node, "/st.pool")
		if err != nil {
			return err
		}
		in := Station{ID: 7, Sensors: []Sensor{
			{Name: "thermo", Readings: []float64{21.5, 21.7}},
			{Name: "baro", Readings: []float64{1013.2}},
		}}
		if err := pmemcpy.StoreStruct(p, "station7", &in); err != nil {
			return err
		}
		var out Station
		if err := pmemcpy.LoadStruct(p, "station7", &out); err != nil {
			return err
		}
		fmt.Printf("station %d, %s reads %.1f\n", out.ID, out.Sensors[0].Name, out.Sensors[0].Readings[1])
		return p.Munmap()
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: station 7, thermo reads 21.7
}

// ExampleCreateArray shows the typed-handle surface: Array[T] binds a handle,
// an id and an element type once, and Store/Load/MinMax drop the repeated
// arguments the free functions carry. Mmap takes functional options (or
// nothing at all for the paper's defaults).
func ExampleCreateArray() {
	node := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
	_, err := pmemcpy.Run(node, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, node, "/arr.pool", pmemcpy.WithReadParallelism(4))
		if err != nil {
			return err
		}
		temp, err := pmemcpy.CreateArray[float64](p, "temperature", 4, 4)
		if err != nil {
			return err
		}
		row := []float64{18.5, 19, 21.25, 20}
		if err := temp.StoreSub(row, []uint64{2, 0}, []uint64{1, 4}); err != nil {
			return err
		}
		got := make([]float64, 2)
		if err := temp.LoadSub(got, []uint64{2, 1}, []uint64{1, 2}); err != nil {
			return err
		}
		_, mx, err := temp.MinMax()
		if err != nil {
			return err
		}
		fmt.Printf("cells %v, max %g\n", got, mx)
		return p.Munmap()
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: cells [19 21.25], max 21.25
}

// Example_sentinels dispatches on the library's error taxonomy with
// errors.Is: every failure caused by a missing id, a mismatched type, or an
// out-of-range selection wraps the corresponding exported sentinel.
func Example_sentinels() {
	node := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
	_, err := pmemcpy.Run(node, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, node, "/err.pool")
		if err != nil {
			return err
		}
		if _, err := pmemcpy.Load[int64](p, "ghost"); errors.Is(err, pmemcpy.ErrNotFound) {
			fmt.Println("ghost: not found")
		}
		if err := pmemcpy.StoreSlice(p, "A", []float64{1, 2, 3}, 3); err != nil {
			return err
		}
		dst := make([]float64, 3)
		if err := pmemcpy.LoadSub(p, "A", dst, []uint64{2}, []uint64{2}); errors.Is(err, pmemcpy.ErrOutOfBounds) {
			fmt.Println("A[2:4]: out of bounds")
		}
		if _, err := pmemcpy.OpenArray[int32](p, "A"); errors.Is(err, pmemcpy.ErrTypeMismatch) {
			fmt.Println("A as int32: type mismatch")
		}
		return p.Munmap()
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// ghost: not found
	// A[2:4]: out of bounds
	// A as int32: type mismatch
}

// ExampleMinMax queries value statistics from BP4 block characteristics
// without reading the data.
func ExampleMinMax() {
	node := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
	_, err := pmemcpy.Run(node, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, node, "/mm.pool")
		if err != nil {
			return err
		}
		if err := pmemcpy.StoreSlice(p, "field", []float64{4.5, -2.25, 9.75, 0}, 4); err != nil {
			return err
		}
		mn, mx, err := pmemcpy.MinMax(p, "field")
		if err != nil {
			return err
		}
		fmt.Printf("range [%g, %g]\n", mn, mx)
		return p.Munmap()
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: range [-2.25, 9.75]
}
