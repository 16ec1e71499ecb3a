//! Defense-scheme issue policies (Table 2).
//!
//! Each scheme decides when a load may be sent to the memory system.
//! The decision is a pure function of the load's VP progress and
//! scheme-specific state (L1 hit for Delay-On-Miss, operand taint for
//! STT), so it lives here rather than in the pipeline.

use pl_base::DefenseScheme;

/// Everything a scheme may consult about a load that wants to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadContext {
    /// The load has reached its Visibility Point (including any
    /// acceleration from pinning).
    pub vp_reached: bool,
    /// The load's line is present in the L1 right now (Delay-On-Miss
    /// probes the cache before deciding).
    pub l1_hit: bool,
    /// At least one register feeding the load's address is tainted by
    /// transiently-read data (STT).
    pub address_tainted: bool,
}

/// Why a load was not allowed to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueBlock {
    /// Fence: waiting to reach the VP.
    WaitVp,
    /// Delay-On-Miss: pre-VP and missing in the L1.
    WaitMissVp,
    /// STT: the address is tainted.
    WaitTaint,
}

impl std::fmt::Display for IssueBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IssueBlock::WaitVp => "waiting for VP",
            IssueBlock::WaitMissVp => "L1 miss before VP",
            IssueBlock::WaitTaint => "address tainted",
        };
        f.write_str(s)
    }
}

/// The issue policy of a defense scheme.
///
/// # Examples
///
/// ```
/// use pl_base::DefenseScheme;
/// use pl_secure::scheme::{IssuePolicy, LoadContext};
///
/// let dom = IssuePolicy::new(DefenseScheme::Dom);
/// let pre_vp_hit = LoadContext { vp_reached: false, l1_hit: true, address_tainted: false };
/// let pre_vp_miss = LoadContext { vp_reached: false, l1_hit: false, address_tainted: false };
/// assert!(dom.may_issue(pre_vp_hit).is_ok());
/// assert!(dom.may_issue(pre_vp_miss).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuePolicy {
    scheme: DefenseScheme,
}

impl IssuePolicy {
    /// Creates the policy for `scheme`.
    pub fn new(scheme: DefenseScheme) -> IssuePolicy {
        IssuePolicy { scheme }
    }

    /// The underlying scheme.
    pub fn scheme(&self) -> DefenseScheme {
        self.scheme
    }

    /// Decides whether a load may issue.
    ///
    /// # Errors
    ///
    /// Returns the [`IssueBlock`] explaining the stall when the scheme
    /// forbids issue this cycle.
    pub fn may_issue(&self, ctx: LoadContext) -> Result<(), IssueBlock> {
        match self.scheme {
            DefenseScheme::Unsafe => Ok(()),
            DefenseScheme::Fence => {
                if ctx.vp_reached {
                    Ok(())
                } else {
                    Err(IssueBlock::WaitVp)
                }
            }
            DefenseScheme::Dom => {
                if ctx.vp_reached || ctx.l1_hit {
                    Ok(())
                } else {
                    Err(IssueBlock::WaitMissVp)
                }
            }
            DefenseScheme::Stt => {
                if !ctx.address_tainted {
                    Ok(())
                } else if ctx.vp_reached {
                    // A load at its VP is non-speculative; its execution
                    // cannot leak even with tainted inputs, and the taint
                    // is about to be cleared anyway.
                    Ok(())
                } else {
                    Err(IssueBlock::WaitTaint)
                }
            }
            // Invisible speculation never blocks issue; the *manner* of
            // the access changes instead (see `issues_invisibly`).
            DefenseScheme::Invisible => Ok(()),
        }
    }

    /// Returns `true` if pre-VP loads must execute invisibly (no cache
    /// state change) and validate with a second access at their VP.
    pub fn issues_invisibly(&self) -> bool {
        self.scheme == DefenseScheme::Invisible
    }

    /// Returns `true` if this scheme marks results of pre-VP loads as
    /// tainted (only STT tracks taint).
    pub fn tracks_taint(&self) -> bool {
        self.scheme == DefenseScheme::Stt
    }

    /// Returns `true` if [`IssuePolicy::may_issue`] reads
    /// [`LoadContext::l1_hit`] (only Delay-On-Miss probes the cache to
    /// decide). Callers with an expensive residency probe can skip it for
    /// every other scheme until the issue decision has passed.
    pub fn consults_l1(&self) -> bool {
        self.scheme == DefenseScheme::Dom
    }

    /// Returns `true` if [`IssuePolicy::may_issue`] holds every load short
    /// of its VP with [`IssueBlock::WaitVp`], whatever its L1 residency or
    /// taint (only Fence). A caller that knows a load is short of its VP
    /// can then count it as held without asking.
    pub fn holds_every_pre_vp_load(&self) -> bool {
        self.scheme == DefenseScheme::Fence
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREE: LoadContext = LoadContext {
        vp_reached: true,
        l1_hit: false,
        address_tainted: false,
    };
    const BLOCKED: LoadContext = LoadContext {
        vp_reached: false,
        l1_hit: false,
        address_tainted: true,
    };

    #[test]
    fn unsafe_always_issues() {
        let p = IssuePolicy::new(DefenseScheme::Unsafe);
        assert!(p.may_issue(BLOCKED).is_ok());
        assert!(!p.tracks_taint());
    }

    #[test]
    fn fence_requires_vp() {
        let p = IssuePolicy::new(DefenseScheme::Fence);
        assert!(p.may_issue(FREE).is_ok());
        assert_eq!(p.may_issue(BLOCKED), Err(IssueBlock::WaitVp));
        // Hitting in L1 does not help Fence.
        let hit = LoadContext {
            vp_reached: false,
            l1_hit: true,
            address_tainted: false,
        };
        assert!(p.may_issue(hit).is_err());
    }

    #[test]
    fn dom_allows_prevp_hits_only() {
        let p = IssuePolicy::new(DefenseScheme::Dom);
        let hit = LoadContext {
            vp_reached: false,
            l1_hit: true,
            address_tainted: false,
        };
        let miss = LoadContext {
            vp_reached: false,
            l1_hit: false,
            address_tainted: false,
        };
        assert!(p.may_issue(hit).is_ok());
        assert_eq!(p.may_issue(miss), Err(IssueBlock::WaitMissVp));
        assert!(p.may_issue(FREE).is_ok());
    }

    #[test]
    fn stt_blocks_tainted_prevp_loads() {
        let p = IssuePolicy::new(DefenseScheme::Stt);
        assert!(p.tracks_taint());
        let untainted_spec = LoadContext {
            vp_reached: false,
            l1_hit: false,
            address_tainted: false,
        };
        assert!(
            p.may_issue(untainted_spec).is_ok(),
            "untainted loads issue speculatively"
        );
        assert_eq!(p.may_issue(BLOCKED), Err(IssueBlock::WaitTaint));
        let tainted_at_vp = LoadContext {
            vp_reached: true,
            l1_hit: false,
            address_tainted: true,
        };
        assert!(p.may_issue(tainted_at_vp).is_ok());
    }

    #[test]
    fn holds_every_pre_vp_load_agrees_with_may_issue() {
        for scheme in DefenseScheme::ALL {
            let p = IssuePolicy::new(scheme);
            let held = [(false, false), (false, true), (true, false), (true, true)]
                .into_iter()
                .all(|(l1_hit, address_tainted)| {
                    let ctx = LoadContext {
                        vp_reached: false,
                        l1_hit,
                        address_tainted,
                    };
                    p.may_issue(ctx) == Err(IssueBlock::WaitVp)
                });
            assert_eq!(p.holds_every_pre_vp_load(), held, "{scheme}");
        }
    }

    #[test]
    fn block_reasons_display() {
        assert!(!IssueBlock::WaitVp.to_string().is_empty());
        assert!(!IssueBlock::WaitMissVp.to_string().is_empty());
        assert!(!IssueBlock::WaitTaint.to_string().is_empty());
    }
}
