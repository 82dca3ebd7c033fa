// Package catalog implements Phase 1's hierarchical event
// categorization for Blue Gene/L RAS records (paper §3.1, Table 3):
// eight main categories refined into 101 subcategories. Every
// subcategory carries a canonical ENTRY DATA phrase and a keyword
// signature; the Classifier maps a raw record back to its subcategory
// from the FACILITY, SEVERITY, and ENTRY DATA attributes.
package catalog

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"bglpred/internal/raslog"
)

// Main is one of the eight high-level RAS categories of paper §3.1.
type Main int

// The eight main categories, in the paper's order.
const (
	Application Main = iota
	Iostream
	Kernel
	Memory
	Midplane
	Network
	NodeCard
	Other

	numMains
)

var mainNames = [...]string{
	Application: "Application",
	Iostream:    "Iostream",
	Kernel:      "Kernel",
	Memory:      "Memory",
	Midplane:    "Midplane",
	Network:     "Network",
	NodeCard:    "NodeCard",
	Other:       "Other",
}

// String returns the category name as printed in the paper's tables.
func (m Main) String() string {
	if m < 0 || int(m) >= len(mainNames) {
		return fmt.Sprintf("Main(%d)", int(m))
	}
	return mainNames[m]
}

// Valid reports whether m is one of the eight categories.
func (m Main) Valid() bool { return m >= Application && m < numMains }

// NumMains is the number of main categories (8).
const NumMains = int(numMains)

// Mains returns the eight main categories in table order.
func Mains() []Main {
	out := make([]Main, numMains)
	for i := range out {
		out[i] = Main(i)
	}
	return out
}

// Subcategory is one leaf of the event taxonomy.
type Subcategory struct {
	// ID is the dense index of the subcategory in All(), stable across
	// a process lifetime and usable as a slice index.
	ID int
	// Name is the camel-case identifier used in mined rules
	// (e.g. "torusFailure", as in paper Figure 3).
	Name string
	// Main is the high-level category the subcategory belongs to.
	Main Main
	// Facility is the FACILITY attribute a record of this subcategory
	// carries (e.g. "KERNEL", "LINKCARD").
	Facility string
	// Severity is the SEVERITY a record of this subcategory carries.
	Severity raslog.Severity
	// Phrase is the canonical ENTRY DATA text. Generated records carry
	// the phrase possibly followed by variable detail (addresses,
	// counters); the classifier matches on Keys, not the whole phrase.
	Phrase string
	// Keys is the keyword signature: a record whose lowercased ENTRY
	// DATA contains every key qualifies for this subcategory.
	Keys []string
}

// IsFatal reports whether records of this subcategory are fatal events
// (the prediction target).
func (s *Subcategory) IsFatal() bool { return s.Severity.IsFatal() }

func (s *Subcategory) String() string { return s.Name }

// sub is a shorthand constructor used by the taxonomy table.
func sub(name string, main Main, fac string, sev raslog.Severity, phrase string, keys ...string) Subcategory {
	return Subcategory{Name: name, Main: main, Facility: fac, Severity: sev, Phrase: phrase, Keys: keys}
}

// Facility identifiers seen in BG/L RAS logs.
const (
	FacApp         = "APP"
	FacCiod        = "CIOD"
	FacKernel      = "KERNEL"
	FacLinkcard    = "LINKCARD"
	FacMMCS        = "MMCS"
	FacMonitor     = "MONITOR"
	FacHardware    = "HARDWARE"
	FacDiscovery   = "DISCOVERY"
	FacBGLMaster   = "BGLMASTER"
	FacCMCS        = "CMCS"
	FacServiceCard = "SERVICECARD"
)

// taxonomy is the full 101-subcategory table (paper Table 3: 12
// application, 8 iostream, 20 kernel, 22 memory, 6 midplane, 11
// network, 10 node card, 12 other). Names quoted in paper Figure 3's
// rule listing all appear here.
var taxonomy = []Subcategory{
	// Application (12)
	sub("loadProgramFailure", Application, FacCiod, raslog.Failure, "ciod: failed to load program image", "load", "program"),
	sub("loginFailure", Application, FacCiod, raslog.Failure, "ciod: login service unavailable to user process", "login"),
	sub("nodemapCreateFailure", Application, FacCiod, raslog.Failure, "ciod: could not create node map", "create", "node map"),
	sub("nodemapFileError", Application, FacCiod, raslog.Error, "ciod: error reading node map file", "node map", "file"),
	sub("appReadError", Application, FacApp, raslog.Error, "application read error on input descriptor", "application", "read"),
	sub("appWriteError", Application, FacApp, raslog.Error, "application write error on output descriptor", "application", "write"),
	sub("appSignalFatal", Application, FacApp, raslog.Fatal, "application terminated by signal", "application", "signal"),
	sub("appExitFailure", Application, FacApp, raslog.Failure, "application exited abnormally with nonzero status", "application", "exited"),
	sub("appLaunchWarning", Application, FacApp, raslog.Warning, "application launch retry pending on partition", "application", "launch"),
	sub("appArgumentError", Application, FacCiod, raslog.Error, "ciod: invalid argument list for application", "invalid", "argument"),
	sub("coredumpCreated", Application, FacCiod, raslog.Info, "ciod: core dump created for failed process", "core dump"),
	sub("appAssertFailure", Application, FacApp, raslog.Failure, "application assertion failed in user code", "assertion"),

	// Iostream (8)
	sub("socketReadFailure", Iostream, FacCiod, raslog.Failure, "communication failure on socket read: connection reset", "socket", "read"),
	sub("socketWriteFailure", Iostream, FacCiod, raslog.Failure, "communication failure on socket write: broken pipe", "socket", "write"),
	sub("socketCloseError", Iostream, FacCiod, raslog.Error, "communication error socket closed prematurely", "socket", "closed"),
	sub("streamReadFailure", Iostream, FacCiod, raslog.Failure, "i/o stream read failure on control stream", "stream", "read"),
	sub("streamWriteFailure", Iostream, FacCiod, raslog.Failure, "i/o stream write failure on data stream", "stream", "write"),
	sub("ciodStreamWarning", Iostream, FacCiod, raslog.Warning, "ciod stream buffer high watermark reached", "stream", "watermark"),
	sub("fileReadError", Iostream, FacCiod, raslog.Error, "file server read error on i/o node", "file server", "read"),
	sub("fileWriteError", Iostream, FacCiod, raslog.Error, "file server write error on i/o node", "file server", "write"),

	// Kernel (20)
	sub("alignmentFailure", Kernel, FacKernel, raslog.Fatal, "alignment exception while accessing data", "alignment"),
	sub("dataAddressFailure", Kernel, FacKernel, raslog.Fatal, "data address exception: invalid data address", "data address"),
	sub("instructionAddressFailure", Kernel, FacKernel, raslog.Fatal, "instruction address exception: invalid fetch", "instruction address"),
	sub("kernelPanicFailure", Kernel, FacKernel, raslog.Fatal, "kernel panic: unable to continue", "kernel panic"),
	sub("tlbExceptionFailure", Kernel, FacKernel, raslog.Fatal, "tlb miss exception on kernel address", "tlb"),
	sub("programInterruptError", Kernel, FacKernel, raslog.Error, "program interrupt: illegal operation", "program interrupt"),
	sub("floatingPointFailure", Kernel, FacKernel, raslog.Fatal, "floating point unavailable exception", "floating point"),
	sub("debugInterruptWarning", Kernel, FacKernel, raslog.Warning, "debug interrupt received by kernel", "debug interrupt"),
	sub("machineCheckError", Kernel, FacKernel, raslog.Error, "machine check interrupt asserted", "machine check"),
	sub("watchdogTimeoutFailure", Kernel, FacKernel, raslog.Fatal, "watchdog timer expired: node unresponsive", "watchdog"),
	sub("syscallError", Kernel, FacKernel, raslog.Error, "unsupported system call in compute kernel", "system call"),
	sub("kernelModeWarning", Kernel, FacKernel, raslog.Warning, "kernel mode transition warning", "kernel mode"),
	sub("pageFaultFailure", Kernel, FacKernel, raslog.Fatal, "unrecoverable page fault in kernel space", "page fault"),
	sub("interruptVectorError", Kernel, FacKernel, raslog.Error, "spurious interrupt on vector", "spurious interrupt"),
	sub("privilegedInstructionFailure", Kernel, FacKernel, raslog.Fatal, "privileged instruction exception in user mode", "privileged"),
	sub("traceInterruptInfo", Kernel, FacKernel, raslog.Info, "trace interrupt enabled for diagnostics", "trace interrupt"),
	sub("kernelShutdownInfo", Kernel, FacKernel, raslog.Info, "compute kernel shutdown complete", "kernel shutdown"),
	sub("stackOverflowFailure", Kernel, FacKernel, raslog.Fatal, "stack overflow detected in kernel thread", "stack overflow"),
	sub("regDumpInfo", Kernel, FacKernel, raslog.Info, "register dump: general purpose registers follow", "register dump"),
	sub("dcrReadError", Kernel, FacKernel, raslog.Error, "dcr read error on device control register", "dcr"),

	// Memory (22)
	sub("cachePrefetchFailure", Memory, FacHardware, raslog.Fatal, "cache prefetch engine failure", "prefetch"),
	sub("dataReadFailure", Memory, FacHardware, raslog.Fatal, "uncorrectable error on data read from memory", "data read"),
	sub("dataStoreFailure", Memory, FacHardware, raslog.Fatal, "uncorrectable error on data store to memory", "data store"),
	sub("parityFailure", Memory, FacHardware, raslog.Fatal, "parity error detected and not recoverable", "parity error"),
	sub("ddrErrorCorrectionInfo", Memory, FacHardware, raslog.Info, "ddr errors detected and corrected", "ddr", "corrected"),
	sub("maskInfo", Memory, FacHardware, raslog.Info, "interrupt mask register updated", "mask"),
	sub("edramFailure", Memory, FacHardware, raslog.Fatal, "uncorrectable error detected in edram bank", "edram"),
	sub("l1CacheError", Memory, FacHardware, raslog.Error, "l1 dcache error detected", "l1 dcache"),
	sub("l2CacheError", Memory, FacHardware, raslog.Error, "l2 cache access error", "l2 cache"),
	sub("l3CacheError", Memory, FacHardware, raslog.Error, "l3 ecc status error", "l3 ecc"),
	sub("sramParityError", Memory, FacHardware, raslog.Error, "sram parity interrupt latched", "sram"),
	sub("ddrSingleSymbolWarning", Memory, FacHardware, raslog.Warning, "ddr single symbol error threshold exceeded", "single symbol"),
	sub("ddrDoubleSymbolFailure", Memory, FacHardware, raslog.Fatal, "ddr double symbol error: not correctable", "double symbol"),
	sub("memoryControllerFailure", Memory, FacHardware, raslog.Fatal, "memory controller initialization failure", "memory controller"),
	sub("scrubCycleInfo", Memory, FacHardware, raslog.Info, "memory scrub cycle completed", "scrub cycle"),
	sub("eccCorrectableInfo", Memory, FacHardware, raslog.Info, "correctable ecc event logged", "correctable ecc"),
	sub("eccUncorrectableFailure", Memory, FacHardware, raslog.Fatal, "uncorrectable ecc error in main store", "uncorrectable ecc"),
	sub("cacheFailure", Memory, FacHardware, raslog.Fatal, "cache coherency failure detected", "cache coherency"),
	sub("lockboxTimeoutError", Memory, FacHardware, raslog.Error, "lockbox acquisition timeout", "lockbox"),
	sub("dmaErrorFailure", Memory, FacHardware, raslog.Fatal, "dma transfer error on reception buffer", "dma"),
	sub("memoryLeakWarning", Memory, FacKernel, raslog.Warning, "kernel heap usage growing: possible memory leak", "memory leak"),
	sub("addressRangeError", Memory, FacHardware, raslog.Error, "address out of physical memory range", "memory range"),

	// Midplane (6)
	sub("linkcardFailure", Midplane, FacLinkcard, raslog.Failure, "linkcard failure: jtag connection lost", "linkcard failure"),
	sub("ciodSignalFailure", Midplane, FacCiod, raslog.Failure, "ciod terminated by signal", "ciod", "signal"),
	sub("midplaneServiceWarning", Midplane, FacMMCS, raslog.Warning, "midplane service action in progress", "midplane service"),
	sub("midplaneStartInfo", Midplane, FacMMCS, raslog.Info, "midplane started by mmcs", "midplane started"),
	sub("midplaneSwitchError", Midplane, FacMMCS, raslog.Error, "midplane switch configuration error", "midplane switch"),
	sub("midplaneLinkcardRestartWarning", Midplane, FacMMCS, raslog.Warning, "midplane linkcard restart initiated", "linkcard restart"),

	// Network (11)
	sub("torusFailure", Network, FacKernel, raslog.Fatal, "uncorrectable torus error detected", "torus error"),
	sub("torusConnectionErrorInfo", Network, FacMMCS, raslog.Info, "torus connection fault counter incremented", "torus connection"),
	sub("rtsFailure", Network, FacKernel, raslog.Fatal, "rts internal failure detected", "rts internal"),
	sub("rtsLinkFailure", Network, FacKernel, raslog.Failure, "rts link failure on tree port", "rts link"),
	sub("rtsPanicFailure", Network, FacKernel, raslog.Fatal, "rts panic - stopping execution", "rts panic"),
	sub("treeNetworkFailure", Network, FacKernel, raslog.Fatal, "tree network reception failure", "tree network"),
	sub("nodeConnectionFailure", Network, FacMMCS, raslog.Failure, "node connection lost: no heartbeat", "node connection"),
	sub("controlNetworkNMCSError", Network, FacMMCS, raslog.Error, "control network nmcs transaction error", "nmcs"),
	sub("controlNetworkInfo", Network, FacMMCS, raslog.Info, "control network poll completed", "control network", "poll"),
	sub("ethernetFailure", Network, FacKernel, raslog.Fatal, "ethernet interface failure: link down", "ethernet", "failure"),
	sub("ethernetLinkWarning", Network, FacMonitor, raslog.Warning, "ethernet link flapping detected", "ethernet link"),

	// NodeCard (10)
	sub("nodecardDiscoveryError", NodeCard, FacDiscovery, raslog.Error, "node card discovery error: no response", "discovery error"),
	sub("nodecardAssemblyWarning", NodeCard, FacDiscovery, raslog.Warning, "node card assembly revision mismatch", "assembly revision"),
	sub("nodecardAssemblySevereDiscovery", NodeCard, FacDiscovery, raslog.Severe, "node card assembly severe fault during discovery", "assembly severe"),
	sub("nodecardUPDMismatch", NodeCard, FacDiscovery, raslog.Warning, "node card upd serial number mismatch", "upd"),
	sub("nodecardFunctionalityWarning", NodeCard, FacMonitor, raslog.Warning, "node card functionality degraded", "functionality"),
	sub("nodecardPowerError", NodeCard, FacMonitor, raslog.Error, "node card power rail error", "power rail"),
	sub("nodecardTempWarning", NodeCard, FacMonitor, raslog.Warning, "node card temperature above threshold", "temperature"),
	sub("nodecardVoltageError", NodeCard, FacMonitor, raslog.Error, "node card voltage out of tolerance", "voltage", "tolerance"),
	sub("nodecardClockFailure", NodeCard, FacHardware, raslog.Fatal, "node card clock distribution failure", "clock"),
	sub("nodecardStatusInfo", NodeCard, FacMonitor, raslog.Info, "node card status poll ok", "status poll"),

	// Other (12)
	sub("BGLMasterRestartInfo", Other, FacBGLMaster, raslog.Info, "bglmaster restarted managed processes", "bglmaster restart"),
	sub("CMCScontrolInfo", Other, FacCMCS, raslog.Info, "cmcs control command accepted", "cmcs control"),
	sub("linkcardServiceWarning", Other, FacLinkcard, raslog.Warning, "linkcard service action requested", "linkcard service"),
	sub("ciodRestartInfo", Other, FacCiod, raslog.Info, "ciod restarted on io node", "ciod restart"),
	sub("endServiceWarning", Other, FacServiceCard, raslog.Warning, "end service action posted", "end service"),
	sub("serviceCardWarning", Other, FacServiceCard, raslog.Warning, "service card environmental warning", "service card"),
	sub("fanSpeedWarning", Other, FacMonitor, raslog.Warning, "fan speed below minimum rpm", "fan speed"),
	sub("powerSupplyVoltageWarning", Other, FacMonitor, raslog.Warning, "power supply voltage fluctuation", "power supply"),
	sub("dbLoggingError", Other, FacCMCS, raslog.Error, "db2 logging backlog error", "db2"),
	sub("pollingAgentInfo", Other, FacCMCS, raslog.Info, "polling agent heartbeat ok", "polling agent"),
	sub("bglmasterFailure", Other, FacBGLMaster, raslog.Failure, "bglmaster process failure: component exited", "bglmaster", "failure"),
	sub("consoleConnectionInfo", Other, FacMMCS, raslog.Info, "mmcs console connection established", "console"),
}

var byName = make(map[string]*Subcategory, len(taxonomy))

func init() {
	for i := range taxonomy {
		s := &taxonomy[i]
		s.ID = i
		if _, dup := byName[s.Name]; dup {
			panic("catalog: duplicate subcategory name " + s.Name)
		}
		byName[s.Name] = s
	}
}

// NumSubcategories is the size of the taxonomy (101, per paper Table 3).
const NumSubcategories = 101

// All returns the full taxonomy in table order. The returned slice is
// shared; callers must not mutate it.
func All() []Subcategory { return taxonomy }

// ByID returns the subcategory with the given dense ID.
func ByID(id int) (*Subcategory, bool) {
	if id < 0 || id >= len(taxonomy) {
		return nil, false
	}
	return &taxonomy[id], true
}

// MustByName looks a subcategory up by its rule identifier (e.g.
// "torusFailure"), for statically known names; it panics on a missing
// name and is intended for tests and generators.
func MustByName(name string) *Subcategory {
	s, ok := byName[name]
	if !ok {
		panic("catalog: unknown subcategory " + name)
	}
	return s
}

// CountByMain returns how many subcategories each main category holds
// (paper Table 3's middle column).
func CountByMain() map[Main]int {
	out := make(map[Main]int, numMains)
	for i := range taxonomy {
		out[taxonomy[i].Main]++
	}
	return out
}

// keySet holds one bit per distinct key of the signature index.
type keySet [4]uint64

func (s *keySet) add(k int) { s[k>>6] |= 1 << (k & 63) }

// covers reports whether s holds every key of t.
func (s *keySet) covers(t *keySet) bool {
	return t[0]&^s[0]|t[1]&^s[1]|t[2]&^s[2]|t[3]&^s[3] == 0
}

// signatureIndex is the taxonomy's keyword signatures compiled for a
// single pass over an entry. Built once from the immutable taxonomy.
type signatureIndex struct {
	// keys are the distinct lowercase keys, grouped by their first two
	// bytes: pair[b0][b1] is 0 when no key starts with b0 b1, else g,
	// and keys[from[g-1]:from[g]] are the keys that do. Most positions
	// of an entry start no key and cost one table load.
	keys []string
	pair [utf8.RuneSelf][utf8.RuneSelf]uint8
	from []int
	// users[k] lists the subcategories whose signature contains key k.
	users [][]int
	// need[s] is subcategory s's required keys and spec[s] its
	// specificity: four times its keys' total length, so a FACILITY (2)
	// or SEVERITY (1) match never outweighs one byte of signature.
	need []keySet
	spec []int
}

var signatures signatureIndex

func init() {
	ix := &signatures
	for i := range taxonomy {
		for _, k := range taxonomy[i].Keys {
			k = strings.ToLower(k)
			if len(k) < 2 || k[0] >= utf8.RuneSelf || k[1] >= utf8.RuneSelf {
				panic("catalog: key " + strconv.Quote(k) + " of " + taxonomy[i].Name + " does not start with two ASCII bytes")
			}
			ix.keys = append(ix.keys, k)
		}
	}
	slices.Sort(ix.keys) // which groups them by their first two bytes
	ix.keys = slices.Compact(ix.keys)
	if len(ix.keys) > 255 {
		panic("catalog: more distinct keys than the index numbers")
	}
	id := make(map[string]int, len(ix.keys))
	ix.from = []int{0}
	for k, key := range ix.keys {
		id[key] = k
		if k > 0 && key[:2] != ix.keys[k-1][:2] {
			ix.from = append(ix.from, k)
		}
		ix.pair[key[0]][key[1]] = uint8(len(ix.from))
	}
	ix.from = append(ix.from, len(ix.keys))
	ix.users = make([][]int, len(ix.keys))
	ix.need = make([]keySet, len(taxonomy))
	ix.spec = make([]int, len(taxonomy))
	for s := range taxonomy {
		for _, key := range taxonomy[s].Keys {
			key = strings.ToLower(key)
			k := id[key]
			ix.need[s].add(k)
			ix.users[k] = append(ix.users[k], s)
			ix.spec[s] += len(key) * 4
		}
	}
}

// A Classifier maps raw RAS records to subcategories by keyword
// signature. It holds no state of its own: every classifier reads the
// one signature index built from the taxonomy, so it is safe for
// concurrent use.
type Classifier struct{}

// NewClassifier returns a classifier over the full taxonomy.
func NewClassifier() *Classifier { return &Classifier{} }

// Classify returns the best-matching subcategory for the record, or
// ok=false if no subcategory's signature matches. A subcategory
// qualifies when the lowercased ENTRY DATA contains every key of its
// signature. Among qualifying subcategories the most specific
// signature (largest total key length) wins; ties prefer matching
// FACILITY, then matching SEVERITY, then table order.
//
// One pass over the lowered entry finds every key it contains; only
// the subcategories using a found key are then scored.
func (c *Classifier) Classify(e *raslog.Event) (*Subcategory, bool) {
	var buf [128]byte
	entry := lower(buf[:], e.EntryData)
	ix := &signatures
	var hits keySet
	for i := 0; i+1 < len(entry); i++ {
		b0, b1 := entry[i], entry[i+1]
		if b0|b1 >= utf8.RuneSelf {
			continue
		}
		g := int(ix.pair[b0][b1])
		if g == 0 {
			continue
		}
		for k := ix.from[g-1]; k < ix.from[g]; k++ {
			if key := ix.keys[k]; len(entry)-i >= len(key) && string(entry[i:i+len(key)]) == key {
				hits.add(k)
			}
		}
	}
	best, bestScore := -1, -1
	for w, word := range hits {
		for ; word != 0; word &= word - 1 {
			for _, s := range ix.users[w*64+bits.TrailingZeros64(word)] {
				if !hits.covers(&ix.need[s]) {
					continue
				}
				score := ix.spec[s]
				if taxonomy[s].Facility == e.Facility {
					score += 2
				}
				if taxonomy[s].Severity == e.Severity {
					score++
				}
				if score > bestScore || score == bestScore && s < best {
					best, bestScore = s, score
				}
			}
		}
	}
	if best < 0 {
		return nil, false
	}
	return &taxonomy[best], true
}

// lower returns s lowercased exactly as strings.ToLower lowers it, in
// buf where it fits. ASCII text, all of a BG/L log, folds byte by byte;
// anything else takes strings.ToLower, which folds runes (U+212A
// KELVIN SIGN becomes "k") and can change the length.
func lower(buf []byte, s string) []byte {
	dst := buf[:0]
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b >= utf8.RuneSelf {
			return append(buf[:0], strings.ToLower(s)...)
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		dst = append(dst, b)
	}
	return dst
}
