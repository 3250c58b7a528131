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
    /// sqrt 23 against 21, mem_ctrl 25 against 23. Since its choices read
    /// every write count, no `-O2` trial edit reconverges with the
    /// committed replay, so each trial replays to the stream's end: full
    /// mem_ctrl rm3 `-O2 --alloc wear` takes about 7 s, against about 0.6 s
    /// under FIFO.
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
    /// The candidate selection of §4.2.1 (release early, allocate late):
    /// nodes in [`crate::Lifetimes::order`], the depth-first post-order from
    /// the outputs. A candidate queue keyed by the releasing-children count
    /// and then the post-order position pops exactly this order (see
    /// [`crate::ir::lower()`]).
    #[default]
    Priority,
    /// Lifetime-driven lookahead: ready nodes wait in a heap keyed by their
    /// static releasing-children count, then post-order position; among
    /// the heap-best few, pick the one with the best *net* RRAM effect —
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

/// Whether the post-lowering IR pass pipeline runs (the `-O` levels of
/// `plimc`).
///
/// [`OptLevel::O0`] runs no [`crate::ir::passes`]: the emitted program is
/// byte-identical to the historical single-step translator, which is why it
/// is the default — reproducing the paper stays the baseline contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// No IR passes; byte-identical to the pre-IR translator output.
    #[default]
    O0,
    /// In-place-overwrite forwarding (which may move an instruction later
    /// to claim a dying cell) followed by removal of the identity writes it
    /// leaves, iterated to a fixpoint.
    O2,
}

impl OptLevel {
    /// Every level, in ascending-aggressiveness order.
    pub const ALL: [OptLevel; 2] = [OptLevel::O0, OptLevel::O2];

    /// The wire/command-line name of the level (`o0`, `o2`).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "o0",
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
            .ok_or_else(|| format!("unknown opt level `{name}` (expected o0|o2)"))
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

    /// Parses the [`CompilerOptions::spec`] spelling: exactly six
    /// `+`-separated component names, so every spelling it accepts is the
    /// `spec()` of the options it returns.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the six-part form when the spec
    /// has another number of components, or naming the valid values of
    /// the first component that is not one of them.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let [schedule, operands, allocator, opt, target, rewrite] = spec
            .split('+')
            .collect::<Vec<_>>()
            .try_into()
            .map_err(|_| {
                format!(
                    "bad options spec `{spec}` (expected \
                     schedule+operands+allocator+opt+target+rewrite)"
                )
            })?;
        Ok(CompilerOptions {
            schedule: ScheduleOrder::parse(schedule)?,
            operands: OperandSelection::parse(operands)?,
            allocator: AllocatorStrategy::parse(allocator)?,
            opt: OptLevel::parse(opt)?,
            target: Target::parse(target)?,
            rewrite: RewriteMode::parse(rewrite)?,
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
    fn only_the_six_part_spelling_parses() {
        for spec in [
            "priority+smart+fifo",
            "priority+smart+fifo+o0",
            "priority+smart+fifo+o0+rm3",
            "priority+smart+fifo+o0+rm3+arena+extra",
        ] {
            let err = CompilerOptions::parse_spec(spec).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "bad options spec `{spec}` (expected \
                     schedule+operands+allocator+opt+target+rewrite)"
                )
            );
        }
        let six = CompilerOptions::parse_spec("priority+smart+fifo+o2+rm3+egraph").unwrap();
        assert_eq!(six.rewrite, RewriteMode::Egraph);
        let err = CompilerOptions::parse_spec("priority+smart+fifo+o7+rm3+arena").unwrap_err();
        assert!(err.contains("o7") && err.contains("o0|o2"), "{err}");
        let err = CompilerOptions::parse_spec("priority+smart+fifo+o1+rm3+arena").unwrap_err();
        assert_eq!(err, "unknown opt level `o1` (expected o0|o2)");
        let err = CompilerOptions::parse_spec("priority+smart+fifo+o0+gpu+arena").unwrap_err();
        assert!(err.contains("gpu") && err.contains("rm3"), "{err}");
        let err = CompilerOptions::parse_spec("priority+smart+fifo+o0+rm3+loop").unwrap_err();
        assert!(err.contains("loop") && err.contains("egraph"), "{err}");
    }

    #[test]
    fn opt_levels_round_trip_and_order() {
        for level in OptLevel::ALL {
            assert_eq!(OptLevel::parse(level.name()), Ok(level));
        }
        assert!(OptLevel::O0 < OptLevel::O2);
        assert!(OptLevel::parse("3").is_err());
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        let err = CompilerOptions::parse_spec("priority+smart").unwrap_err();
        assert!(
            err.contains("schedule+operands+allocator+opt+target+rewrite"),
            "{err}"
        );
        let err = CompilerOptions::parse_spec("priority+smart+zigzag+o0+rm3+arena").unwrap_err();
        assert!(err.contains("zigzag") && err.contains("wear"), "{err}");
        let err = CompilerOptions::parse_spec("priority+sideways+fifo+o0+rm3+arena").unwrap_err();
        assert!(
            err.contains("sideways") && err.contains("child-order"),
            "{err}"
        );
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        let err = AllocatorStrategy::parse("zigzag").unwrap_err();
        assert!(err.contains("zigzag") && err.contains("wear"), "{err}");
        let err = ScheduleOrder::parse("random").unwrap_err();
        assert!(err.contains("random") && err.contains("lookahead"), "{err}");
    }
}
