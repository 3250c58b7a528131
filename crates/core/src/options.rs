//! Compiler configuration: plain `Copy` data. The options name a target
//! ([`Target`], one row of the fixed [`crate::backend::backends`] table)
//! and a rewrite engine ([`RewriteMode`]); nothing here is filled in at
//! run time.

use crate::backend::Target;

/// Strategy of the work-RRAM allocator (§4.2.3 of the paper, extended).
///
/// Every strategy is a policy over the same free-cell pool maintained by
/// [`crate::alloc::RramAllocator`]; adding one means adding a variant here
/// and a matching arm to the allocator's pool (the compiler, CLI, ablation
/// harness and bench gate pick it up through [`AllocatorStrategy::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocatorStrategy {
    /// Free list served oldest-released-first. This is the paper's choice:
    /// recently released cells rest longest, spreading writes across the
    /// array and addressing RRAM endurance.
    #[default]
    Fifo,
    /// Free list served most-recently-released-first. Minimizes the working
    /// set just as well but concentrates writes on few cells; provided as an
    /// ablation baseline for the endurance claim.
    Lifo,
    /// Never reuse released cells. Every request allocates a fresh RRAM —
    /// the upper bound on `#R`.
    Fresh,
    /// Wear-budget reuse: serve the free cell with the fewest writes
    /// recorded so far (ties to the lowest address), read from the
    /// allocator's per-cell write counters at request time. It does not
    /// look at how many writes the new value will take, so its peak cell
    /// wear can end above FIFO's: reduced `-O0` int2float 36 against 33,
    /// sqrt 23 against 21, mem_ctrl 25 against 23.
    WearLeveled,
    /// Lifetime-binned reuse: cells that last held a long-lived value are
    /// kept apart from short-lived churn, so the hottest slots rotate
    /// within their own pool (requests carry a
    /// [`crate::lifetime::LifetimeClass`] hint).
    LifetimeBinned,
}

impl AllocatorStrategy {
    /// Every strategy, in a stable sweep order.
    pub const ALL: [AllocatorStrategy; 5] = [
        AllocatorStrategy::Fifo,
        AllocatorStrategy::Lifo,
        AllocatorStrategy::Fresh,
        AllocatorStrategy::WearLeveled,
        AllocatorStrategy::LifetimeBinned,
    ];

    /// The command-line name of the strategy.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorStrategy::Fifo => "fifo",
            AllocatorStrategy::Lifo => "lifo",
            AllocatorStrategy::Fresh => "fresh",
            AllocatorStrategy::WearLeveled => "wear",
            AllocatorStrategy::LifetimeBinned => "binned",
        }
    }

    /// Parses a command-line name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the valid strategies when `name`
    /// is not one of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        AllocatorStrategy::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                format!("unknown allocator `{name}` (expected fifo|lifo|fresh|wear|binned)")
            })
    }
}

/// Order in which computable MIG nodes are translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleOrder {
    /// Topological index order (the paper's naive baseline: "the candidate
    /// selection scheme is disabled").
    Index,
    /// The priority queue of §4.2.1: prefer candidates with more releasing
    /// children, then candidates whose parents sit on lower levels.
    #[default]
    Priority,
    /// Lifetime-driven lookahead on top of the priority queue: among the
    /// heap-best candidates, pick the one with the best *net* RRAM effect —
    /// cells freed right now, minus cells the translation must newly
    /// allocate, plus the best release unlocked one step later.
    Lookahead,
}

impl ScheduleOrder {
    /// Every schedule, in a stable sweep order.
    pub const ALL: [ScheduleOrder; 3] = [
        ScheduleOrder::Index,
        ScheduleOrder::Priority,
        ScheduleOrder::Lookahead,
    ];

    /// The command-line name of the schedule.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleOrder::Index => "index",
            ScheduleOrder::Priority => "priority",
            ScheduleOrder::Lookahead => "lookahead",
        }
    }

    /// Parses a command-line name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the valid schedules when `name`
    /// is not one of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        ScheduleOrder::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown schedule `{name}` (expected index|priority|lookahead)"))
    }
}

/// How hard the post-lowering IR pass pipeline works on the instruction
/// stream (the `-O` levels of `plimc`).
///
/// Levels select which [`crate::ir::passes`] run between lowering and
/// emission. [`OptLevel::O0`] runs none: the emitted program is
/// byte-identical to the historical single-step translator, which is why it
/// is the default — reproducing the paper stays the baseline contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// No IR passes; byte-identical to the pre-IR translator output.
    #[default]
    O0,
    /// One linear redundant-initialization removal run. Never reorders
    /// instructions. Lowering emits no initialization it can remove, so on
    /// the benchmark suite and on seeded random logic `-O1` emits what
    /// `-O0` does; the level stays because request specs and cache keys
    /// name it.
    O1,
    /// In-place-overwrite forwarding (which may move an instruction later
    /// to claim a dying cell) followed by redundant-initialization removal,
    /// iterated to a fixpoint.
    O2,
}

impl OptLevel {
    /// Every level, in ascending-aggressiveness order.
    pub const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

    /// The wire/command-line name of the level (`o0`, `o1`, `o2`).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "o0",
            OptLevel::O1 => "o1",
            OptLevel::O2 => "o2",
        }
    }

    /// Parses a wire/command-line name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the valid levels when `name` is
    /// not one of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        OptLevel::ALL
            .into_iter()
            .find(|level| level.name() == name)
            .ok_or_else(|| format!("unknown opt level `{name}` (expected o0|o1|o2)"))
    }
}

/// Which MIG rewrite engine runs ahead of translation.
///
/// All three engines apply the paper's axioms (Ω.C/Ω.A/Ω.M plus
/// distributivity and inverter propagation); they differ in *how* the
/// rewrite space is explored. The mode is part of [`CompilerOptions`] —
/// and therefore of the options spec and the service cache key — because
/// the optimized MIG, and with it every downstream artifact, depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RewriteMode {
    /// The in-place arena engine of Algorithm 1: greedy local application
    /// of the axiom cycle, fastest, the paper-reproduction default.
    #[default]
    Arena,
    /// The historical copy-and-rebuild engine: same greedy cycle expressed
    /// as whole-graph rebuild passes. Kept as a differential baseline for
    /// the arena engine.
    Rebuild,
    /// Equality saturation: the arena result is refined through the
    /// `plim-egraph` e-graph, which saturates the axiom set under a
    /// deterministic budget and extracts the candidate with the cheapest
    /// *compiled* cost under the active backend. Never worse than `Arena`
    /// by construction (the arena result is always a candidate). This crate
    /// cannot run it (`plim-egraph` compiles through this crate): the
    /// `plim-service` pipeline does.
    Egraph,
}

impl RewriteMode {
    /// Every mode, in a stable sweep order.
    pub const ALL: [RewriteMode; 3] = [
        RewriteMode::Arena,
        RewriteMode::Rebuild,
        RewriteMode::Egraph,
    ];

    /// The wire/command-line name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            RewriteMode::Arena => "arena",
            RewriteMode::Rebuild => "rebuild",
            RewriteMode::Egraph => "egraph",
        }
    }

    /// Parses a wire/command-line name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the valid modes when `name` is
    /// not one of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        RewriteMode::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| format!("unknown rewrite mode `{name}` (expected arena|rebuild|egraph)"))
    }
}

/// How RM3 operands and the destination are chosen for each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OperandSelection {
    /// Fixed child order: first child → `A`, second → `B`, third → `Z`
    /// (the naive translation illustrated in §3 of the paper).
    ChildOrder,
    /// The case analysis of §4.2.2 (operand-B cases a–h, destination-Z cases
    /// a–e, operand-A cases a–d), including complement-value caching.
    #[default]
    Smart,
}

impl OperandSelection {
    /// Every policy, in a stable sweep order.
    pub const ALL: [OperandSelection; 2] = [OperandSelection::ChildOrder, OperandSelection::Smart];

    /// The wire/command-line name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            OperandSelection::ChildOrder => "child-order",
            OperandSelection::Smart => "smart",
        }
    }

    /// Parses a wire/command-line name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the valid policies when `name` is
    /// not one of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        OperandSelection::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| format!("unknown operand policy `{name}` (expected child-order|smart)"))
    }
}

/// Options controlling the MIG → PLiM translation.
///
/// The defaults correspond to the paper's full proposed compiler; use
/// [`CompilerOptions::naive`] for the Table 1 baseline. The lifetime-driven
/// extensions (lookahead scheduling, wear-budget and lifetime-binned
/// allocation) are opt-in so the default output stays byte-identical to the
/// paper reproduction.
///
/// # Examples
///
/// ```
/// use plim_compiler::{AllocatorStrategy, CompilerOptions};
///
/// let opts = CompilerOptions::new().allocator(AllocatorStrategy::Lifo);
/// assert_eq!(opts.allocator, AllocatorStrategy::Lifo);
/// assert_eq!(CompilerOptions::naive().schedule, plim_compiler::ScheduleOrder::Index);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompilerOptions {
    /// Node scheduling order.
    pub schedule: ScheduleOrder,
    /// Operand/destination selection policy.
    pub operands: OperandSelection,
    /// Work-RRAM allocation strategy.
    pub allocator: AllocatorStrategy,
    /// IR pass-pipeline level run between lowering and emission.
    pub opt: OptLevel,
    /// Emission target: which [`crate::backend::Backend`] consumes the
    /// optimized IR (and scores the pass pipeline's trial edits). Defaults to [`Target::RM3`], the paper's architecture.
    pub target: Target,
    /// MIG rewrite engine run ahead of translation. Defaults to
    /// [`RewriteMode::Arena`], Algorithm 1's greedy in-place engine.
    pub rewrite: RewriteMode,
}

impl CompilerOptions {
    /// The paper's proposed compiler: priority scheduling, smart operand
    /// selection, FIFO allocation.
    pub fn new() -> Self {
        CompilerOptions::default()
    }

    /// The naive baseline of Table 1: "only the candidate selection scheme
    /// is disabled" — index-order scheduling with the smart per-node
    /// translation and FIFO allocation. (The even more naive fixed
    /// child-order translation illustrated in §3 is available via
    /// [`OperandSelection::ChildOrder`].)
    pub fn naive() -> Self {
        CompilerOptions {
            schedule: ScheduleOrder::Index,
            operands: OperandSelection::Smart,
            allocator: AllocatorStrategy::Fifo,
            opt: OptLevel::O0,
            target: Target::RM3,
            rewrite: RewriteMode::Arena,
        }
    }

    /// Sets the scheduling order.
    pub fn schedule(mut self, schedule: ScheduleOrder) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the operand-selection policy.
    pub fn operands(mut self, operands: OperandSelection) -> Self {
        self.operands = operands;
        self
    }

    /// Sets the allocation strategy.
    pub fn allocator(mut self, allocator: AllocatorStrategy) -> Self {
        self.allocator = allocator;
        self
    }

    /// Sets the IR pass-pipeline level.
    pub fn opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Sets the emission target.
    pub fn target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }

    /// Sets the MIG rewrite engine.
    pub fn rewrite(mut self, rewrite: RewriteMode) -> Self {
        self.rewrite = rewrite;
        self
    }

    /// The canonical wire spelling of this configuration
    /// (`schedule+operands+allocator+opt+target+rewrite`, e.g.
    /// `priority+smart+fifo+o0+rm3+arena`), used by the compile-service
    /// protocol and as part of the result-cache fingerprint. **Every**
    /// field of the options must appear here: the service derives its
    /// cache key from this spelling, so a field that does not reach the
    /// spec would let a warm cache hit serve a program compiled under
    /// different options — or, worse, for a different target or rewrite
    /// engine. Round-trips through [`CompilerOptions::parse_spec`].
    pub fn spec(&self) -> String {
        format!(
            "{}+{}+{}+{}+{}+{}",
            self.schedule.name(),
            self.operands.name(),
            self.allocator.name(),
            self.opt.name(),
            self.target.name(),
            self.rewrite.name()
        )
    }

    /// Parses the [`CompilerOptions::spec`] spelling.
    ///
    /// The historical three-part (`schedule+operands+allocator`),
    /// four-part (`…+opt`) and five-part (`…+target`) spellings are still
    /// accepted and imply `o0`, the RM3 target and the arena rewrite
    /// engine respectively, so requests from older clients keep compiling
    /// — and keep hitting the same cache entries as an explicit
    /// `-O0 --target rm3 --rewrite arena`.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the spec is not three to six
    /// `+`-separated component names.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split('+').collect();
        let (schedule, operands, allocator, opt, target, rewrite) = match parts.as_slice() {
            [schedule, operands, allocator] => (
                schedule,
                operands,
                allocator,
                OptLevel::O0,
                Target::RM3,
                RewriteMode::Arena,
            ),
            [schedule, operands, allocator, opt] => (
                schedule,
                operands,
                allocator,
                OptLevel::parse(opt)?,
                Target::RM3,
                RewriteMode::Arena,
            ),
            [schedule, operands, allocator, opt, target] => (
                schedule,
                operands,
                allocator,
                OptLevel::parse(opt)?,
                Target::parse(target)?,
                RewriteMode::Arena,
            ),
            [schedule, operands, allocator, opt, target, rewrite] => (
                schedule,
                operands,
                allocator,
                OptLevel::parse(opt)?,
                Target::parse(target)?,
                RewriteMode::parse(rewrite)?,
            ),
            _ => {
                return Err(format!(
                "bad options spec `{spec}` (expected schedule+operands+allocator[+opt][+target][+rewrite])"
            ))
            }
        };
        Ok(CompilerOptions {
            schedule: ScheduleOrder::parse(schedule)?,
            operands: OperandSelection::parse(operands)?,
            allocator: AllocatorStrategy::parse(allocator)?,
            opt,
            target,
            rewrite,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_proposed_compiler() {
        let opts = CompilerOptions::new();
        assert_eq!(opts.schedule, ScheduleOrder::Priority);
        assert_eq!(opts.operands, OperandSelection::Smart);
        assert_eq!(opts.allocator, AllocatorStrategy::Fifo);
    }

    #[test]
    fn naive_preset_disables_candidate_selection_only() {
        let opts = CompilerOptions::naive();
        assert_eq!(opts.schedule, ScheduleOrder::Index);
        assert_eq!(opts.operands, OperandSelection::Smart);
        assert_eq!(opts.allocator, AllocatorStrategy::Fifo);
    }

    #[test]
    fn builder_chains() {
        let opts = CompilerOptions::new()
            .schedule(ScheduleOrder::Index)
            .operands(OperandSelection::ChildOrder)
            .allocator(AllocatorStrategy::Fresh);
        assert_eq!(opts.allocator, AllocatorStrategy::Fresh);
        assert_eq!(opts.schedule, ScheduleOrder::Index);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for strategy in AllocatorStrategy::ALL {
            assert_eq!(AllocatorStrategy::parse(strategy.name()), Ok(strategy));
        }
        for schedule in ScheduleOrder::ALL {
            assert_eq!(ScheduleOrder::parse(schedule.name()), Ok(schedule));
        }
        for policy in OperandSelection::ALL {
            assert_eq!(OperandSelection::parse(policy.name()), Ok(policy));
        }
        for mode in RewriteMode::ALL {
            assert_eq!(RewriteMode::parse(mode.name()), Ok(mode));
        }
    }

    #[test]
    fn specs_round_trip_for_every_combination() {
        for schedule in ScheduleOrder::ALL {
            for operands in OperandSelection::ALL {
                for allocator in AllocatorStrategy::ALL {
                    for opt in OptLevel::ALL {
                        for target in Target::all() {
                            for rewrite in RewriteMode::ALL {
                                let options = CompilerOptions {
                                    schedule,
                                    operands,
                                    allocator,
                                    opt,
                                    target,
                                    rewrite,
                                };
                                assert_eq!(
                                    CompilerOptions::parse_spec(&options.spec()),
                                    Ok(options)
                                );
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(
            CompilerOptions::new().spec(),
            "priority+smart+fifo+o0+rm3+arena"
        );
    }

    #[test]
    fn three_to_five_part_specs_imply_o0_rm3_and_arena() {
        let options = CompilerOptions::parse_spec("priority+smart+fifo").unwrap();
        assert_eq!(options, CompilerOptions::new());
        assert_eq!(options.opt, OptLevel::O0);
        assert_eq!(options.target, Target::RM3);
        assert_eq!(options.rewrite, RewriteMode::Arena);
        let four = CompilerOptions::parse_spec("priority+smart+fifo+o2").unwrap();
        assert_eq!(four.opt, OptLevel::O2);
        assert_eq!(four.target, Target::RM3);
        // Back-compat keys stay *identical* to the explicit spellings, so
        // an old client and a new one share cache entries.
        assert_eq!(four, CompilerOptions::new().opt(OptLevel::O2));
        let five = CompilerOptions::parse_spec("priority+smart+fifo+o2+rm3").unwrap();
        assert_eq!(five, four);
        assert_eq!(five.rewrite, RewriteMode::Arena);
        let six = CompilerOptions::parse_spec("priority+smart+fifo+o2+rm3+egraph").unwrap();
        assert_eq!(six.rewrite, RewriteMode::Egraph);
        assert_ne!(six.spec(), five.spec());
        let err = CompilerOptions::parse_spec("priority+smart+fifo+o7").unwrap_err();
        assert!(err.contains("o7") && err.contains("o0|o1|o2"), "{err}");
        let err = CompilerOptions::parse_spec("priority+smart+fifo+o0+gpu").unwrap_err();
        assert!(err.contains("gpu") && err.contains("rm3"), "{err}");
        let err = CompilerOptions::parse_spec("priority+smart+fifo+o0+rm3+loop").unwrap_err();
        assert!(err.contains("loop") && err.contains("egraph"), "{err}");
    }

    #[test]
    fn opt_levels_round_trip_and_order() {
        for level in OptLevel::ALL {
            assert_eq!(OptLevel::parse(level.name()), Ok(level));
        }
        assert!(OptLevel::O0 < OptLevel::O1 && OptLevel::O1 < OptLevel::O2);
        assert!(OptLevel::parse("3").is_err());
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        let err = CompilerOptions::parse_spec("priority+smart").unwrap_err();
        assert!(err.contains("schedule+operands+allocator"), "{err}");
        let err = CompilerOptions::parse_spec("priority+smart+zigzag").unwrap_err();
        assert!(err.contains("zigzag"), "{err}");
        let err = CompilerOptions::parse_spec("priority+sideways+fifo").unwrap_err();
        assert!(err.contains("sideways"), "{err}");
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        let err = AllocatorStrategy::parse("zigzag").unwrap_err();
        assert!(err.contains("zigzag") && err.contains("wear"), "{err}");
        let err = ScheduleOrder::parse("random").unwrap_err();
        assert!(err.contains("random") && err.contains("lookahead"), "{err}");
    }
}
