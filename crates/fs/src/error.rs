//! Error type for file-system operations.

use std::fmt;

use xftl_ftl::DevError;

/// Errors surfaced by the simulated file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Underlying device error.
    Dev(DevError),
    /// No file with that name.
    NotFound,
    /// A file with that name already exists.
    Exists,
    /// No free data blocks (or inodes) left.
    NoSpace,
    /// Name longer than 255 bytes or empty.
    BadName,
    /// Byte range beyond the maximum file size the block map can address.
    TooLarge,
    /// Invalid inode number or stale handle.
    BadInode,
    /// The volume's superblock is missing or corrupt.
    BadSuperblock,
    /// The mount mode needs a transactional device (journal `Off` mode
    /// requires X-FTL underneath) but the device lacks the command set.
    NeedsTxDevice,
    /// Operation requires a transaction id in this journal mode.
    NeedsTid,
    /// The underlying device has degraded to read-only mode (end of
    /// life): dirtying operations are refused, reads keep working.
    ReadOnly,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Dev(e) => write!(f, "device error: {e}"),
            FsError::NotFound => write!(f, "file not found"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NoSpace => write!(f, "no space left on volume"),
            FsError::BadName => write!(f, "invalid file name"),
            FsError::TooLarge => write!(f, "offset beyond maximum file size"),
            FsError::BadInode => write!(f, "invalid inode"),
            FsError::BadSuperblock => write!(f, "missing or corrupt superblock"),
            FsError::NeedsTxDevice => {
                write!(
                    f,
                    "journal mode Off requires a transactional (X-FTL) device"
                )
            }
            FsError::NeedsTid => write!(f, "operation requires a transaction id in this mode"),
            FsError::ReadOnly => write!(f, "volume is read-only (device end-of-life)"),
        }
    }
}

impl std::error::Error for FsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FsError::Dev(e) => Some(e),
            FsError::NotFound
            | FsError::Exists
            | FsError::NoSpace
            | FsError::BadName
            | FsError::TooLarge
            | FsError::BadInode
            | FsError::BadSuperblock
            | FsError::NeedsTxDevice
            | FsError::NeedsTid
            | FsError::ReadOnly => None,
        }
    }
}

impl From<DevError> for FsError {
    fn from(e: DevError) -> Self {
        match e {
            DevError::ReadOnly => FsError::ReadOnly,
            e @ (DevError::Flash(_)
            | DevError::BadLpn(_)
            | DevError::OutOfSpace
            | DevError::UnknownTid(_)
            | DevError::XL2pFull
            | DevError::NotFormatted
            | DevError::NotQueued
            | DevError::Conflict) => FsError::Dev(e),
        }
    }
}

/// Result alias for file-system operations.
pub type Result<T> = std::result::Result<T, FsError>;
