//! Coherence protocol messages.
//!
//! The protocol is a directory-based MESI (Table 1) with the Pinned Loads
//! extensions of Sections 5.1.1 and 5.1.5: invalidation responses carry a
//! **Defer** variant, write requests have a starred retry form (**GetX\***)
//! whose invalidations (**Inv\***) populate Cannot-Pin Tables, and a
//! successful previously-starred write triggers a **Clear** broadcast.

use pl_base::{CoreId, LineAddr};
use std::fmt;

/// A network endpoint: a core tile or an LLC/directory slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A core (and its private L1).
    Core(CoreId),
    /// An LLC slice with its directory bank.
    Slice(usize),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Core(c) => write!(f, "{c}"),
            NodeId::Slice(s) => write!(f, "slice{s}"),
        }
    }
}

/// Permission granted with a data response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataGrant {
    /// Read permission; other sharers may exist.
    Shared,
    /// Read-write permission, clean (MESI E).
    Exclusive,
    /// Read-write permission for a write transaction (MESI M).
    Modified,
}

impl fmt::Display for DataGrant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataGrant::Shared => "S",
            DataGrant::Exclusive => "E",
            DataGrant::Modified => "M",
        };
        f.write_str(s)
    }
}

/// A coherence message.
///
/// Data payloads are not carried: the simulator keeps values in the
/// functional backing store ([`crate::Memory`]) and the protocol carries
/// timing and permissions only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    // ---- core -> directory requests ----
    /// Read request for `line`.
    GetS {
        /// Requested line.
        line: LineAddr,
        /// Requesting core.
        requester: CoreId,
    },
    /// Write/upgrade request. `star` marks the GetX* retry form of
    /// Section 5.1.5, used after a previous attempt was deferred.
    GetX {
        /// Requested line.
        line: LineAddr,
        /// Requesting (writing) core.
        requester: CoreId,
        /// `true` for GetX*.
        star: bool,
    },
    /// Clean eviction notice from an L1.
    PutS {
        /// Evicted line.
        line: LineAddr,
        /// Evicting core.
        from: CoreId,
    },
    /// Dirty writeback from an L1.
    PutM {
        /// Written-back line.
        line: LineAddr,
        /// Evicting core.
        from: CoreId,
    },
    /// Write transaction completed successfully; directory may commit the
    /// new owner and, for a starred write, broadcast [`Msg::Clear`].
    Unblock {
        /// Transaction line.
        line: LineAddr,
        /// The writer.
        from: CoreId,
    },
    /// Write transaction aborted because a sharer deferred (Figure 3b);
    /// the directory exits the transient state without changing sharers.
    Abort {
        /// Transaction line.
        line: LineAddr,
        /// The writer.
        from: CoreId,
    },

    // ---- directory -> core ----
    /// Data (or upgrade permission) response. The requester must collect
    /// `acks_expected` invalidation responses from sharers before the
    /// write can complete.
    Data {
        /// Filled line.
        line: LineAddr,
        /// Granted permission.
        grant: DataGrant,
        /// Invalidation responses the requester must collect (writes
        /// only; zero for reads).
        acks_expected: usize,
    },
    /// Invalidate `line` for a write by `requester`; respond to the
    /// requester with [`Msg::InvAck`] or [`Msg::InvDefer`]. `star` marks
    /// Inv* (insert the line into the CPT, Section 5.1.5).
    Inv {
        /// Line to invalidate.
        line: LineAddr,
        /// Core to respond to.
        requester: CoreId,
        /// `true` for Inv*.
        star: bool,
    },
    /// Owner must send the data to `requester` with a Shared grant,
    /// downgrade to S, and copy the line back to the directory.
    FwdGetS {
        /// Requested line.
        line: LineAddr,
        /// Reading core.
        requester: CoreId,
    },
    /// Owner must send the data to `requester` with a Modified grant and
    /// invalidate its copy — or defer if the line is pinned.
    FwdGetX {
        /// Requested line.
        line: LineAddr,
        /// Writing core.
        requester: CoreId,
        /// `true` for the starred retry form.
        star: bool,
    },
    /// Inclusive-hierarchy invalidation: the LLC wants to evict `line`;
    /// the core must invalidate its L1 copy (responding
    /// [`Msg::BackInvAck`]) or defer if pinned ([`Msg::BackInvDefer`]).
    BackInv {
        /// Line being evicted from the LLC.
        line: LineAddr,
        /// Slice to respond to.
        slice: usize,
    },
    /// Remove `line` from the Cannot-Pin Table: the starred write
    /// succeeded (Figure 5b).
    Clear {
        /// Line to clear.
        line: LineAddr,
    },
    /// The directory is busy with another transaction on `line`; retry
    /// later. `was_write` tags which kind of request was rejected, so a
    /// core with both a read and a write outstanding on the same line
    /// attributes the rejection correctly.
    Nack {
        /// Contended line.
        line: LineAddr,
        /// `true` if the rejected request was a `GetX`.
        was_write: bool,
    },

    // ---- core -> core ----
    /// Sharer invalidated its copy (and squashed matching unretired
    /// unpinned loads).
    InvAck {
        /// Invalidated line.
        line: LineAddr,
        /// Responding core.
        from: CoreId,
    },
    /// Sharer holds the line pinned and denies the invalidation
    /// (Section 5.1.1).
    InvDefer {
        /// Pinned line.
        line: LineAddr,
        /// Responding core.
        from: CoreId,
    },
    /// Previous owner forwards the data with the given grant (response to
    /// `FwdGetS`/`FwdGetX`).
    OwnerData {
        /// Forwarded line.
        line: LineAddr,
        /// Granted permission.
        grant: DataGrant,
        /// Previous owner.
        from: CoreId,
    },

    // ---- core -> directory responses ----
    /// Owner downgraded to Shared after `FwdGetS`; directory leaves the
    /// transient state.
    CopyBack {
        /// Downgraded line.
        line: LineAddr,
        /// Previous owner.
        from: CoreId,
        /// `true` if the copy was dirty.
        dirty: bool,
    },
    /// Core invalidated its copy for an LLC eviction.
    BackInvAck {
        /// Invalidated line.
        line: LineAddr,
        /// Responding core.
        from: CoreId,
        /// `true` if the copy was dirty.
        dirty: bool,
    },
    /// Core holds the line pinned; the LLC eviction must be cancelled.
    BackInvDefer {
        /// Pinned line.
        line: LineAddr,
        /// Responding core.
        from: CoreId,
    },
}

impl Msg {
    /// The line this message concerns.
    pub fn line(&self) -> LineAddr {
        match *self {
            Msg::GetS { line, .. }
            | Msg::GetX { line, .. }
            | Msg::PutS { line, .. }
            | Msg::PutM { line, .. }
            | Msg::Unblock { line, .. }
            | Msg::Abort { line, .. }
            | Msg::Data { line, .. }
            | Msg::Inv { line, .. }
            | Msg::FwdGetS { line, .. }
            | Msg::FwdGetX { line, .. }
            | Msg::BackInv { line, .. }
            | Msg::Clear { line }
            | Msg::Nack { line, .. }
            | Msg::InvAck { line, .. }
            | Msg::InvDefer { line, .. }
            | Msg::OwnerData { line, .. }
            | Msg::CopyBack { line, .. }
            | Msg::BackInvAck { line, .. }
            | Msg::BackInvDefer { line, .. } => line,
        }
    }

    /// Returns `true` for request messages that initiate a transaction at
    /// the directory.
    pub fn is_dir_request(&self) -> bool {
        matches!(self, Msg::GetS { .. } | Msg::GetX { .. })
    }

    /// A short static name for this message kind, with the starred retry
    /// forms spelled `GetX*`/`Inv*`/`FwdGetX*`. Used by the event tracer.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::GetS { .. } => "GetS",
            Msg::GetX { star: false, .. } => "GetX",
            Msg::GetX { star: true, .. } => "GetX*",
            Msg::PutS { .. } => "PutS",
            Msg::PutM { .. } => "PutM",
            Msg::Unblock { .. } => "Unblock",
            Msg::Abort { .. } => "Abort",
            Msg::Data { .. } => "Data",
            Msg::Inv { star: false, .. } => "Inv",
            Msg::Inv { star: true, .. } => "Inv*",
            Msg::FwdGetS { .. } => "FwdGetS",
            Msg::FwdGetX { star: false, .. } => "FwdGetX",
            Msg::FwdGetX { star: true, .. } => "FwdGetX*",
            Msg::BackInv { .. } => "BackInv",
            Msg::Clear { .. } => "Clear",
            Msg::Nack { .. } => "Nack",
            Msg::InvAck { .. } => "InvAck",
            Msg::InvDefer { .. } => "InvDefer",
            Msg::OwnerData { .. } => "OwnerData",
            Msg::CopyBack { .. } => "CopyBack",
            Msg::BackInvAck { .. } => "BackInvAck",
            Msg::BackInvDefer { .. } => "BackInvDefer",
        }
    }
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Msg::GetS { line, requester } => write!(f, "GetS({line}) from {requester}"),
            Msg::GetX {
                line,
                requester,
                star,
            } => {
                write!(
                    f,
                    "GetX{}({line}) from {requester}",
                    if *star { "*" } else { "" }
                )
            }
            Msg::PutS { line, from } => write!(f, "PutS({line}) from {from}"),
            Msg::PutM { line, from } => write!(f, "PutM({line}) from {from}"),
            Msg::Unblock { line, from } => write!(f, "Unblock({line}) from {from}"),
            Msg::Abort { line, from } => write!(f, "Abort({line}) from {from}"),
            Msg::Data {
                line,
                grant,
                acks_expected,
            } => {
                write!(f, "Data({line}, {grant}, acks={acks_expected})")
            }
            Msg::Inv {
                line,
                requester,
                star,
            } => {
                write!(
                    f,
                    "Inv{}({line}) for {requester}",
                    if *star { "*" } else { "" }
                )
            }
            Msg::FwdGetS { line, requester } => write!(f, "FwdGetS({line}) for {requester}"),
            Msg::FwdGetX {
                line,
                requester,
                star,
            } => {
                write!(
                    f,
                    "FwdGetX{}({line}) for {requester}",
                    if *star { "*" } else { "" }
                )
            }
            Msg::BackInv { line, slice } => write!(f, "BackInv({line}) from slice{slice}"),
            Msg::Clear { line } => write!(f, "Clear({line})"),
            Msg::Nack { line, was_write } => {
                write!(
                    f,
                    "Nack({line}, {})",
                    if *was_write { "write" } else { "read" }
                )
            }
            Msg::InvAck { line, from } => write!(f, "InvAck({line}) from {from}"),
            Msg::InvDefer { line, from } => write!(f, "InvDefer({line}) from {from}"),
            Msg::OwnerData { line, grant, from } => {
                write!(f, "OwnerData({line}, {grant}) from {from}")
            }
            Msg::CopyBack { line, from, dirty } => {
                write!(f, "CopyBack({line}, dirty={dirty}) from {from}")
            }
            Msg::BackInvAck { line, from, dirty } => {
                write!(f, "BackInvAck({line}, dirty={dirty}) from {from}")
            }
            Msg::BackInvDefer { line, from } => write!(f, "BackInvDefer({line}) from {from}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::Addr;

    #[test]
    fn line_accessor_covers_all_variants() {
        let l = Addr::new(0x80).line();
        let c = CoreId(1);
        let msgs = [
            Msg::GetS {
                line: l,
                requester: c,
            },
            Msg::GetX {
                line: l,
                requester: c,
                star: true,
            },
            Msg::PutS { line: l, from: c },
            Msg::PutM { line: l, from: c },
            Msg::Unblock { line: l, from: c },
            Msg::Abort { line: l, from: c },
            Msg::Data {
                line: l,
                grant: DataGrant::Shared,
                acks_expected: 0,
            },
            Msg::Inv {
                line: l,
                requester: c,
                star: false,
            },
            Msg::FwdGetS {
                line: l,
                requester: c,
            },
            Msg::FwdGetX {
                line: l,
                requester: c,
                star: false,
            },
            Msg::BackInv { line: l, slice: 0 },
            Msg::Clear { line: l },
            Msg::Nack {
                line: l,
                was_write: false,
            },
            Msg::InvAck { line: l, from: c },
            Msg::InvDefer { line: l, from: c },
            Msg::OwnerData {
                line: l,
                grant: DataGrant::Modified,
                from: c,
            },
            Msg::CopyBack {
                line: l,
                from: c,
                dirty: true,
            },
            Msg::BackInvAck {
                line: l,
                from: c,
                dirty: false,
            },
            Msg::BackInvDefer { line: l, from: c },
        ];
        for m in msgs {
            assert_eq!(m.line(), l);
            assert!(!m.to_string().is_empty());
            // Every Display form leads with the kind name.
            assert!(m.to_string().starts_with(m.kind().trim_end_matches('*')));
        }
    }

    #[test]
    fn kind_marks_starred_forms() {
        let l = Addr::new(0).line();
        assert_eq!(
            Msg::GetX {
                line: l,
                requester: CoreId(0),
                star: true
            }
            .kind(),
            "GetX*"
        );
        assert_eq!(
            Msg::Inv {
                line: l,
                requester: CoreId(0),
                star: false
            }
            .kind(),
            "Inv"
        );
        assert_eq!(
            Msg::FwdGetX {
                line: l,
                requester: CoreId(0),
                star: true
            }
            .kind(),
            "FwdGetX*"
        );
    }

    #[test]
    fn dir_request_classification() {
        let l = Addr::new(0).line();
        assert!(Msg::GetS {
            line: l,
            requester: CoreId(0)
        }
        .is_dir_request());
        assert!(Msg::GetX {
            line: l,
            requester: CoreId(0),
            star: false
        }
        .is_dir_request());
        assert!(!Msg::Nack {
            line: l,
            was_write: true
        }
        .is_dir_request());
    }

    #[test]
    fn starred_messages_display_star() {
        let l = Addr::new(0).line();
        let m = Msg::GetX {
            line: l,
            requester: CoreId(2),
            star: true,
        };
        assert!(m.to_string().contains("GetX*"));
        let i = Msg::Inv {
            line: l,
            requester: CoreId(2),
            star: true,
        };
        assert!(i.to_string().contains("Inv*"));
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId::Core(CoreId(3)).to_string(), "core3");
        assert_eq!(NodeId::Slice(1).to_string(), "slice1");
    }
}
