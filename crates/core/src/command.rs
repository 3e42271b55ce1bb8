//! DRAM command vocabulary.
//!
//! The controller drives the device model with the classic command set
//! (§II): `ACT` opens a row into a μbank's row buffer, `RD`/`WR` move a
//! 64 B column, `PRE` closes the row, and `REF` refreshes a rank.

use crate::address::Location;

/// Coordinates a command applies to. For row/column commands this is a full
/// [`Location`]; `REF` targets a whole rank.
pub type Target = Location;

/// One DRAM command as issued on a channel's command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramCommand {
    /// Open `target.row` in the addressed μbank.
    Activate(Target),
    /// Read the 64 B column `target.col` from the open row.
    Read(Target),
    /// Write the 64 B column `target.col` of the open row.
    Write(Target),
    /// Close the open row of the addressed μbank.
    Precharge(Target),
    /// All-bank refresh of one rank.
    Refresh { channel: u16, rank: u8 },
}

impl DramCommand {
    /// The channel this command occupies.
    pub fn channel(&self) -> u16 {
        match self {
            DramCommand::Activate(t)
            | DramCommand::Read(t)
            | DramCommand::Write(t)
            | DramCommand::Precharge(t) => t.channel,
            DramCommand::Refresh { channel, .. } => *channel,
        }
    }

    /// True for RD/WR (column) commands, which occupy the data bus.
    pub fn is_column(&self) -> bool {
        matches!(self, DramCommand::Read(_) | DramCommand::Write(_))
    }

    /// Short mnemonic for trace output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            DramCommand::Activate(_) => "ACT",
            DramCommand::Read(_) => "RD",
            DramCommand::Write(_) => "WR",
            DramCommand::Precharge(_) => "PRE",
            DramCommand::Refresh { .. } => "REF",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc() -> Location {
        Location {
            channel: 3,
            rank: 0,
            bank: 1,
            w: 0,
            b: 2,
            row: 7,
            col: 5,
        }
    }

    #[test]
    fn channel_extraction() {
        assert_eq!(DramCommand::Activate(loc()).channel(), 3);
        assert_eq!(
            DramCommand::Refresh {
                channel: 9,
                rank: 1
            }
            .channel(),
            9
        );
    }

    #[test]
    fn column_classification() {
        assert!(DramCommand::Read(loc()).is_column());
        assert!(DramCommand::Write(loc()).is_column());
        assert!(!DramCommand::Activate(loc()).is_column());
        assert!(!DramCommand::Precharge(loc()).is_column());
    }

    #[test]
    fn mnemonics() {
        assert_eq!(DramCommand::Precharge(loc()).mnemonic(), "PRE");
        assert_eq!(
            DramCommand::Refresh {
                channel: 0,
                rank: 0
            }
            .mnemonic(),
            "REF"
        );
    }
}
